"""The verification suite: verdicts, and one window index per (level, prime)."""

import dataclasses
import tracemalloc

import pytest

from lampwalk import sampling, verify
from lampwalk.construction import Config, Construction
from lampwalk.errors import LampwalkError, ScheduleLimitError, SizeCapError
from lampwalk.groups import LAMP_A, PRODUCT_IDENTITY, LamplighterElement, encode, inverse
from lampwalk.sampling import KDistribution
from lampwalk.tvbound import SparsePMF, exact_joint_pmf


def test_suite_builds_each_window_index_once(mini_sym_small, monkeypatch, factor_builds):
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
    # one factor map built per level; factor 2 holds factor 1's
    assert len(factor_builds) == len(indexes)
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


def test_switcher_scan_failure_is_reported():
    # the identity is no switcher: e * b1 * e lands back in A
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(1)
    level = c.levels[0]
    bad = dataclasses.replace(level.factor(1), b1=c.identity)
    level.factors = (bad, level.factor(2))
    with pytest.raises(ScheduleLimitError, match="switcher-inner-L1j1 failed"):
        c._brute_verify(level)
    rows = {name: (ok, detail) for name, ok, detail in verify.run_verification_suite(c)}
    ok, detail = rows["switcher-inner-L1j1"]
    assert not ok and "; witness (" in detail
    assert rows["switcher-inner-L1j2"][0] and rows["switcher-outer-L1j2"][0]


def test_switcher_rows_say_what_was_scanned(mini_sym_small, mini_asym_small):
    for c, scanned in ((mini_sym_small, "2*{}^2 triples"), (mini_asym_small, "{}^2 pairs")):
        rows = {name: (ok, detail) for name, ok, detail in verify._check_switchers(c)}
        for level in c.levels:
            for name, req, _ in c.switcher_scans(level):
                assert rows[name] == (True, "brute scan over " + scanned.format(len(req)))
    # an inner switcher that is its own inverse is scanned over one sign
    c = Construction("symmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(1)
    level = c.levels[0]
    level.factors = (dataclasses.replace(level.factor(1), b1=LAMP_A), level.factor(2))
    rows = {name: (ok, detail) for name, ok, detail in verify._check_switchers(c)}
    [n] = {len(req) for name, req, _ in c.switcher_scans(level) if name == "switcher-inner-L1j1"}
    ok, detail = rows["switcher-inner-L1j1"]
    assert not ok and detail.startswith(f"brute scan over {n}^2 triples (b = b^-1); witness (")


def test_pmf_symmetry_fails_on_a_support_not_closed_under_inverse(mini_sym_small, monkeypatch):
    def without_one_inverse(c, kdist):
        probs = dict(exact_joint_pmf(c, kdist).probs)
        g = next(g for g in sorted(probs, key=encode) if inverse(g) != g)
        del probs[inverse(g)]
        return SparsePMF(probs, tolerance=1.0)  # the mass no longer sums to 1

    [(name, ok, detail)] = verify._check_pmf_symmetry(mini_sym_small)
    assert ok, detail
    monkeypatch.setattr(verify, "exact_joint_pmf", without_one_inverse)
    [(name, ok, detail)] = verify._check_pmf_symmetry(mini_sym_small)
    assert (name, ok) == ("pmf-symmetry", False)
    assert detail.startswith("the support misses the inverse of ")


def test_a_non_unique_blue_parse_is_a_failing_row(mini_sym_small, monkeypatch):
    # a switcher breach gives an increment two parses; pmf_eval reports it as
    # a LampwalkError, which the suite turns into a failing row
    monkeypatch.setattr(sampling, "_blue_parses", lambda c, k, g: [(None, None)] * 2)
    kdist = KDistribution(truncation=1)
    with pytest.raises(LampwalkError, match="blue parse not unique; switcher breach"):
        sampling.pmf_eval(mini_sym_small, PRODUCT_IDENTITY, kdist)
    rows = {name: (ok, detail) for name, ok, detail in verify.run_verification_suite(mini_sym_small)}
    # a check that raises is reported under the name its own rows carry
    assert rows["pmf-symmetry"] == (False, "blue parse not unique; switcher breach")
    assert all(ok for name, (ok, _) in rows.items() if name != "pmf-symmetry")


def test_loaded_file_is_verified_without_a_rebuild(tmp_path, monkeypatch):
    # load already rebuilt the levels from the recipe; the rebuild row holds
    # that build to the recorded digest instead of building a third copy
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(3)
    c.save(tmp_path / "m.lwc")
    loaded = Construction.load(tmp_path / "m.lwc")
    built = []
    build_level = Construction.build_level

    def counted(self, i):
        built.append(i)
        return build_level(self, i)

    monkeypatch.setattr(Construction, "build_level", counted)
    rows = {name: (ok, detail) for name, ok, detail in verify.run_verification_suite(loaded)}
    assert built == []
    assert rows["deterministic-rebuild"] == (True, "rebuild reproduces the recorded digest")
    loaded.file_digest = "0" * 64
    [row] = verify._check_rebuild(loaded)
    assert row == ("deterministic-rebuild", False, "rebuild diverges")
    assert built == []


def test_a_digest_that_cannot_be_written_fails_the_rebuild_row(mini_asym_small, monkeypatch):
    # a rebuild that raises a LampwalkError, here a planted one, fails the
    # row: it keeps its name and gives the reason
    def too_long(self):
        raise SizeCapError("cannot encode: a cursor or lamp exceeds 2000000 decimal digits")

    monkeypatch.setattr(Construction, "digest", too_long)
    rows = verify.run_verification_suite(mini_asym_small)
    assert rows[0] == (
        "deterministic-rebuild", False,
        "rebuild failed: cannot encode: a cursor or lamp exceeds 2000000 decimal digits",
    )
    assert all(ok for _, ok, _ in rows[1:])


def _reference_core_rows(c: Construction) -> list:
    """The core rows read the way the suite once read them: each level's core as a set."""
    out = []
    for j in (1, 2):
        cores = [set(c.a_core(j, i)) for i in range(1, c.max_built + 1)]
        nested = all(a <= b for a, b in zip(cores, cores[1:]))
        out.append((
            f"core-nesting-j{j}", nested,
            "A cores grow monotonically" if nested else "a core lost elements",
        ))
        if c.mode == "symmetric":
            sym = all({inverse(g) for g in core} == core for core in cores)
            out.append((
                f"core-symmetry-j{j}", sym,
                "cores closed under inverse" if sym else "a core is not symmetric",
            ))
    return out


@pytest.mark.parametrize("fixture", ["mini_asym", "mini_sym", "mini_asym_small", "mini_sym_small",
                                     "paper_asym"])
def test_core_rows_match_the_per_level_sets(fixture, request):
    c = request.getfixturevalue(fixture)
    assert verify._check_core_nesting(c) == _reference_core_rows(c)


def test_core_rows_fail_where_the_per_level_sets_do():
    def tampered():
        c = Construction("symmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
        c.build_to(6)
        return c

    # level 3 adds an element without its inverse
    c = tampered()
    added = c.a_core_added(1, 3)
    assert added
    core = c._core_lists[0]
    core[core.index(added[0])] = LamplighterElement((), 10**9)
    rows = verify._check_core_nesting(c)
    assert rows == _reference_core_rows(c)
    assert [ok for _, ok, _ in rows] == [True, False, True, True]
    # level 5's core falls back to level 3's
    c = tampered()
    assert c.a_state(1, 3).core_len < c.a_state(1, 4).core_len
    st = c._a_states[4]
    c._a_states[4] = (dataclasses.replace(st[0], core_len=c.a_state(1, 3).core_len), st[1])
    rows = verify._check_core_nesting(c)
    assert rows == _reference_core_rows(c)
    assert [ok for _, ok, _ in rows] == [False, True, True, True]


def test_core_rows_copy_no_core():
    # 50 symmetric levels: the cores reach 3,109 entries, and reading every
    # level's core as a set peaked at 12.7 MB
    c = Construction("symmetric", "mini", Config(brute_verify=False))
    c.build_to(50)
    tracemalloc.start()
    try:
        rows = verify._check_core_nesting(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(ok for _, ok, _ in rows) and len(rows) == 4
    assert peak < 2_000_000, peak
