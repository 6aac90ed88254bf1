import mcis

PUBLIC_NAMES = [
    "CONFIG_NAMES",
    "Graph",
    "GraphParseError",
    "InstanceReport",
    "OracleResult",
    "SearchStats",
    "Solution",
    "SolverConfig",
    "SymmetryClasses",
    "aggregate_reports",
    "brute_force_mcis",
    "compute_symmetry_classes",
    "is_isomorphism",
    "parse_edgelist",
    "parse_lad",
    "run_batch",
    "run_instance",
    "solve",
]


def test_public_names_are_the_product_surface():
    # test-only oracles live in tests/reference.py, not in the package
    assert sorted(mcis.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in mcis.__all__:
        assert getattr(mcis, name) is not None
