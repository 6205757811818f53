import ugwkit

# the public surface: the library modules' __all__ lists, __version__ and
# the drivers' pu_predict
PUBLIC = {
    "__version__", "pu_predict",
    # conic
    "CgwResult", "ConeMetricSpec", "ConicPlan", "cone_cost", "conic_energy", "conic_lift",
    "dilate", "perspective_H", "solve_cgw", "up_residual",
    # flb
    "eccentricity", "solve_flb",
    # geometry
    "SHAPE_KINDS", "PointCloud", "WeightedGraph", "gen_shape", "graph_geodesics",
    "pairwise_euclidean", "space_from_graph", "space_from_points",
    # lp
    "LpProblem", "LpSolution", "solve_lp",
    # measures
    "BALANCED", "KL", "TV", "EntropySpec", "MmSpace", "TransportPlan", "kl_div", "quad_kl",
    "tensor_kl",
    # scaling
    "ScalingReport", "lambert_w", "optimal_scale_linear", "optimal_scale_quadratic",
    "scaling_bias_report",
    # sinkhorn
    "Potentials", "SinkhornResult", "uot_sinkhorn",
    # ugw
    "DebiasedResult", "UgwConfig", "UgwSolution", "biconvex_functional", "debiased_ugw",
    "distortion_cost", "local_cost", "solve_ugw", "tightness_diagnostics", "ugw_functional",
}


def test_export_list_is_the_public_surface():
    assert len(PUBLIC) == 52
    assert len(ugwkit.__all__) == len(set(ugwkit.__all__))
    assert set(ugwkit.__all__) == PUBLIC
    for name in ugwkit.__all__:
        assert hasattr(ugwkit, name), name


def test_each_name_is_the_defining_module_object():
    for module in (ugwkit.conic, ugwkit.flb, ugwkit.geometry, ugwkit.lp, ugwkit.measures,
                   ugwkit.scaling, ugwkit.sinkhorn, ugwkit.ugw):
        for name in module.__all__:
            assert getattr(ugwkit, name) is getattr(module, name), name
    assert ugwkit.pu_predict is ugwkit.app.pu_predict
