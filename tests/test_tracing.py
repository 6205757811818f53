"""The benchmark's trace hooks reach the functions the solvers call.

``perfbench/tracing.py`` times each layer by wrapping module-level names. A
name it wraps that no solver calls reads 0 in every traced run, so these
tests load that file as it is and check that its targets exist and that the
hot layers record spans.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ugwkit.cli  # noqa: F401  (the trace wraps cli.main, so cli must be loaded)
from ugwkit import conic, ugw

from conftest import random_space

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for home, name, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(home), name, None)), f"{home}.{name}"


def test_hot_layers_record_spans(tracing):
    rng = np.random.default_rng(31)
    X = random_space(rng, 3, weights="mass")
    Y = random_space(rng, 4, weights="mass")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        conic.solve_cgw(X, Y, K=4, L=4, restarts=2, seed=0)
        ugw.solve_ugw(X, Y, ugw.UgwConfig(eps=0.1, rho1=1.0))
    finally:
        tracer.uninstall()
    spans = Counter(span["layer"] for span in tracer.spans)
    for layer in ("conic", "conic.local_cost", "lp", "ugw", "ugw.local_cost", "sinkhorn"):
        assert spans[layer] > 0, layer
    # each restart prices its start plan and every LP solution
    assert spans["conic.local_cost"] == spans["lp"] + 2
