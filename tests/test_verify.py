"""The verification suite: verdicts, and one window index per (level, prime)."""

from lampwalk import verify


def test_suite_builds_each_window_index_once(mini_sym_small, monkeypatch):
    indexes = {}

    class CountingOracle(verify.WindowOracle):
        def index(self, i, prime=False):
            built = super().index(i, prime)
            # holding every returned index keeps distinct builds at distinct ids
            indexes.setdefault((i, prime), []).append(built)
            return built

    monkeypatch.setattr(verify, "WindowOracle", CountingOracle)
    results = verify.run_verification_suite(mini_sym_small)
    assert sorted(indexes) == [(1, False), (2, False)]
    for key, returned in indexes.items():
        assert len({id(x) for x in returned}) == 1, key
    assert [(name, ok) for name, ok, _ in results] == [
        ("deterministic-rebuild", True),
        ("core-nesting-j1", True),
        ("core-symmetry-j1", True),
        ("core-nesting-j2", True),
        ("core-symmetry-j2", True),
        ("switcher-inner-L1j1", True),
        ("switcher-outer-L1j1", True),
        ("switcher-inner-L1j2", True),
        ("switcher-outer-L1j2", True),
        ("switcher-inner-L2j1", True),
        ("switcher-outer-L2j1", True),
        ("switcher-inner-L2j2", True),
        ("switcher-outer-L2j2", True),
        ("decomposition-unique-L1", True),
        ("decomposition-unique-L2", True),
        ("window-disjoint-L1L2", True),
        ("folner-L1", True),
        ("folner-L2", True),
        ("pmf-symmetry", True),
    ]
