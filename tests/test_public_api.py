"""The public names of the package, pinned so that a removal shows in review."""

import types

import lampwalk

PUBLIC = [  # sorted
    "AbelianControlElement", "BoundCertificate", "Config", "Construction",
    "CoupledStep", "Decomposition", "ExplicitSet", "GroupDescriptor",
    "KDistribution", "LamplighterElement", "Level", "ProductElement",
    "RecordReport", "SkewBox", "SparsePMF", "SwitcherReport", "TVBoundReport",
    "TailSequence", "Trajectory", "abelian_control_group", "analytic_switcher",
    "analyze_records", "certified_marginal_bound", "certify", "certify_power",
    "certify_product", "check_nontriviality_conditions", "convolve", "decode",
    "decompose_oracle", "decompose_tracked", "detect_stabilization", "encode",
    "enumerate_elements", "exact_marginal", "explicit", "find_switcher_bfs",
    "folner_for", "freeness_test", "inverse", "is_superswitcher", "is_switcher",
    "lamplighter_group", "multiply", "p_map", "pmf_eval", "power_set", "product_group",
    "product_set", "rank_tracked", "sample_x", "sample_y", "skewbox_overlap",
    "symmetrize", "tau_extract", "tv", "verify_folner", "walk", "word_ball",
]


def test_public_names_pinned():
    # submodules are left out: which of them are attributes depends on what
    # the test session imported before
    names = sorted(
        name for name, value in vars(lampwalk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC
