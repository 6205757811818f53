"""Spans around the module-level names each ugwkit layer is called through.

``Tracer.install`` replaces every binding of a traced function in the loaded
ugwkit modules (``solve_ugw`` is bound in ``ugw``, ``app`` and ``cli``) by a
wrapper that records a span: layer, function, start, end, parent span and
the counters read from the return value. Nothing under ``src/`` changes;
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _sinkhorn_counts(res):
    n, m = res.plan.values.shape
    return {"sweeps": res.iterations, "capped": int(not res.converged),
            "cells": res.iterations * n * m}


def _ugw_counts(sol):
    return {"outer": sol.outer_iterations, "unconverged": int(not sol.converged)}


def _lp_counts(sol):
    return {"pivots": sol.iterations}


def _cgw_counts(res):
    return {"rounds": sum(entry["rounds"] for entry in res.restart_log)}


_APP_IO = ("save_space", "load_space", "load_matrix", "load_weights", "save_plan",
           "write_table", "write_manifest")

# (defining module, function name, layer, counters read from the return value)
TARGETS = (
    ("ugwkit.sinkhorn", "uot_sinkhorn", "sinkhorn", _sinkhorn_counts),
    ("ugwkit.ugw", "local_cost", "ugw.local_cost", None),
    ("ugwkit.ugw", "solve_ugw", "ugw", _ugw_counts),
    ("ugwkit.lp", "solve_lp", "lp", _lp_counts),
    ("ugwkit.conic", "conic_local_cost", "conic.local_cost", None),
    ("ugwkit.conic", "solve_cgw", "conic", _cgw_counts),
    ("ugwkit.conic", "conic_lift", "conic.certificate", None),
    ("ugwkit.conic", "conic_energy", "conic.certificate", None),
    ("ugwkit.cli", "main", "cli", None),
    ("ugwkit.geometry", "gen_shape", "geometry", None),
    ("ugwkit.geometry", "space_from_points", "geometry", None),
) + tuple(("ugwkit.app", name, "app.io", None) for name in _APP_IO)


class Tracer:
    """Keeps spans in memory; ``write_jsonl`` saves them when the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []  # ids of the spans currently running, innermost last
        self._patched = []  # (module, name, original)

    def _wrap(self, fn, layer, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "layer": layer, "fn": fn.__name__,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None, "counts": {}}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(out)
            return out

        return traced

    def install(self):
        for home, name, layer, counts in TARGETS:
            original = getattr(sys.modules[home], name)
            wrapper = self._wrap(original, layer, counts)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "ugwkit" or mod_name.startswith("ugwkit.")) and \
                        getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_table(spans):
    """Per-layer span count, time, self time and summed counters.

    ``s`` counts a span only when no enclosing span belongs to the same layer,
    so nested calls are not counted twice; ``self_s`` is each span's duration
    minus the time of its direct child spans.
    """
    by_id = {span["id"]: span for span in spans}
    child_s = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    table = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = table[span["layer"]]
        dur = span["end"] - span["start"]
        row["spans"] += 1
        row["self_s"] += dur - child_s[span["id"]]
        if not has_ancestor(span, span["layer"], by_id):
            row["s"] += dur
        for key, value in span["counts"].items():
            row[key] += value
    return table


def has_ancestor(span, layer, by_id):
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["layer"] == layer:
            return True
        parent = by_id[parent]["parent"]
    return False


def root_time(spans):
    """Time covered by spans that have no parent."""
    return sum(span["end"] - span["start"] for span in spans if span["parent"] is None)


def format_table(table, rounds):
    lines = [f"{'layer':<18}{'spans':>10}{'s':>12}{'self_s':>12}   counters (per round, "
             f"{rounds} traced rounds)"]
    for layer in sorted(table):
        row = table[layer]
        extra = " ".join(f"{k}={row[k] / rounds:.6g}" for k in sorted(row)
                         if k not in ("spans", "s", "self_s"))
        lines.append(f"{layer:<18}{row['spans'] / rounds:>10.6g}{row['s'] / rounds:>12.6g}"
                     f"{row['self_s'] / rounds:>12.6g}   {extra}")
    return "\n".join(lines)
