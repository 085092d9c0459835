"""Record analytics, window decompositions, tails, and freeness."""

import copy
import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from references import recompose, window_rank

from lampwalk import analysis, groups, sampling
from lampwalk.analysis import (
    MULTIPLE,
    WindowOracle,
    analyze_records,
    check_nontriviality_conditions,
    decompose_oracle,
    decompose_tracked,
    detect_stabilization,
    dominant_record_times,
    freeness_test,
    p_map,
    rank_tracked,
    stable_so_far_flags,
    tau_extract,
    trajectory_report,
)
from lampwalk.construction import Config, Construction
from lampwalk.errors import GroupMismatchError, MembershipError
from lampwalk.groups import (
    LAMP_A,
    LamplighterElement,
    ProductElement,
    decode,
    encode,
    lamplighter_group,
    multiply,
    product_group,
)
from lampwalk.sampling import CoupledStep, KDistribution, Trajectory, walk

PRODUCT = product_group(lamplighter_group(), lamplighter_group())
PE = PRODUCT.identity()


def ky_trajectory(ks, blue_at=None):
    blue_at = set(blue_at or range(1, len(ks) + 1))
    return Trajectory(list(ks), bytearray(i not in blue_at for i in range(1, len(ks) + 1)))


# -- records ---------------------------------------------------------------------


def test_record_classification_worked_example():
    report = analyze_records([2, 5, 3, 5, 7])
    assert report.record_times == (1, 2, 5)
    assert report.non_strict_record_times == (1, 2, 4, 5)
    assert report.simple_record_times == (1, 5)


def test_strictly_increasing_all_simple():
    report = analyze_records([1, 2, 3, 4])
    assert report.record_times == (1, 2, 3, 4)
    assert report.simple_record_times == (1, 2, 3, 4)


def test_constant_sequence_single_nonsimple_record():
    report = analyze_records([3, 3, 3])
    assert report.record_times == (1,)
    assert report.non_strict_record_times == (1, 2, 3)
    assert report.simple_record_times == ()


def test_empty_rejected():
    with pytest.raises(ValueError):
        analyze_records([])


def definitional_records(ks):
    """Record, non-strict and simple times straight from their definitions."""
    times = range(1, len(ks) + 1)
    records = [i for i in times if all(ks[i - 1] > ks[j - 1] for j in range(1, i))]
    non_strict = [i for i in times if all(ks[i - 1] >= ks[j - 1] for j in range(1, i))]
    simple = [
        i for i in records if all(ks[i - 1] < ks[j - 1] for j in non_strict if j > i)
    ]
    return tuple(records), tuple(non_strict), tuple(simple)


def per_step_scan(ks, blue):
    """Stable-so-far flags and dominant record times, one step at a time."""
    flags, dom = [], []
    for i in range(1, len(ks) + 1):
        top = max(ks[:i])
        argmax = ks.index(top) + 1
        flags.append(ks[:i].count(top) == 1 and top > i and blue[argmax - 1])
        dom.append(argmax)
    return flags, dom


def test_record_analytics_match_definitions_on_tie_heavy_sequences():
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randrange(1, 30)
        span = rng.choice((2, 3, 5, 40))
        ks = [rng.randrange(1, span) for _ in range(n)]
        report = analyze_records(ks)
        got = (report.record_times, report.non_strict_record_times, report.simple_record_times)
        assert got == definitional_records(ks), ks
        blue = [rng.random() < 0.7 for _ in range(n)]
        traj = Trajectory(ks, bytearray(not b for b in blue))
        flags, dom = per_step_scan(ks, blue)
        assert (stable_so_far_flags(traj), dominant_record_times(traj)) == (flags, dom), ks
        bad = [i for i in range(1, n + 1) if not flags[i - 1]]
        want = (bad[-1] if bad else 0) if flags[-1] else None
        assert detect_stabilization(traj) == want, ks


# -- stabilization ------------------------------------------------------------------


def test_huge_first_blue_step_stabilizes_at_zero():
    traj = ky_trajectory([10**6, 1, 2, 1])
    assert detect_stabilization(traj) == 0


def test_max_not_exceeding_index_never_stabilizes():
    traj = ky_trajectory([3, 2, 2, 2, 2])
    assert detect_stabilization(traj) is None


def test_red_dominant_record_blocks():
    traj = ky_trajectory([10**6, 1, 1], blue_at={2, 3})
    assert detect_stabilization(traj) is None


def test_tie_at_max_blocks():
    traj = ky_trajectory([50, 50, 1])
    assert detect_stabilization(traj) is None


def test_stabilization_time_is_last_bad_index():
    # stable from step 3 on: the first two indices fail (max <= i at 2)
    traj = ky_trajectory([2, 1, 90, 1, 1])
    flags = stable_so_far_flags(traj)
    assert flags == [True, False, True, True, True]
    assert detect_stabilization(traj) == 2


def test_empirical_stabilized_fraction_grows_with_horizon(mini_asym):
    kd = KDistribution(truncation=10**6)
    rng = random.Random(31)
    n_traj, horizon = 300, 1000
    at_small, at_large = 0, 0
    for _ in range(n_traj):
        traj = walk(mini_asym, horizon, rng, kdist=kd, x_level_cap=0)
        head = Trajectory(traj.k[:100], traj.red[:100])
        at_small += detect_stabilization(head) is not None
        at_large += detect_stabilization(traj) is not None
    assert at_small <= at_large
    assert at_large / n_traj > 0.9


# -- tracked decompositions -----------------------------------------------------------


@pytest.fixture(scope="module")
def deep_asym():
    # walks at truncation 3000 with no cap read every level they may draw
    c = Construction("asymmetric", "mini")
    c.build_to(3000)
    return c


@pytest.fixture(scope="module")
def mini_walks(deep_asym):
    # stabilization needs the running level maximum to outgrow the index, so
    # the truncation must dwarf the horizon; every increment materializes
    kd = KDistribution(truncation=3000)
    rng = random.Random(32)
    out = []
    for _ in range(60):
        traj = walk(deep_asym, 40, rng, kdist=kd)
        if detect_stabilization(traj) is not None:
            out.append(traj)
        if len(out) == 5:
            break
    assert len(out) == 5
    return out


def test_tracked_recomposition(deep_asym, mini_walks):
    for traj in mini_walks:
        i0 = detect_stabilization(traj)
        for n in range(i0 + 1, traj.horizon + 1):
            d = decompose_tracked(traj, n, deep_asym)
            assert d is not None and None not in (d.q1, d.f1, d.f2, d.q2)
            assert recompose(deep_asym, d) == traj.z(n)
            assert rank_tracked(traj, n) == d.level


def test_tracked_tail_is_identity_at_record(deep_asym, mini_walks):
    for traj in mini_walks:
        i0 = detect_stabilization(traj)
        m = dominant_record_times(traj)[traj.horizon - 1]
        if m > i0:
            d = decompose_tracked(traj, m, deep_asym)
            assert d.q2 == PE


def test_tracked_agrees_with_oracle(deep_asym):
    # tracked windows sit at the dominant level, so levels the oracle can
    # index (1 and 2) only arise from single-step trajectories
    oracle = WindowOracle(deep_asym)
    kd = KDistribution(truncation=3000)
    rng = random.Random(35)
    checked = {1: 0, 2: 0}
    for _ in range(400):
        traj = walk(deep_asym, 1, rng, kdist=kd)
        level = rank_tracked(traj, 1)
        if level not in (1, 2):
            continue
        d = decompose_tracked(traj, 1, deep_asym)
        found = decompose_oracle(oracle, traj.z(1), level)
        assert found is not None and found is not MULTIPLE
        assert found.q1 == d.q1
        assert (found.f1, found.f2) == (d.f1, d.f2)
        assert found.q2 == d.q2
        assert found.sigma == d.sigma
        checked[level] += 1
    assert checked[2] > 0


def fresh_record_trajectory(horizon):
    """Every step a fresh blue record above the horizon, every increment materialized."""
    return Trajectory(
        [10**6 + i for i in range(horizon)],
        bytearray(horizon),
        elements={i: (None, None, PE) for i in range(horizon)},
        zs=[PE] * horizon,
    )


def test_condition_checks_scan_each_trajectory_once(monkeypatch):
    # the checks, and the tracked decomposition asked for at every step, must
    # read the one record scan of the trajectory, not redo it
    passes = []
    for name in ("stable_so_far_flags", "dominant_record_times", "_record_scan"):
        original = getattr(analysis, name)

        def counted(*args, _original=original, **kwargs):
            passes.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)

    def count(horizon):
        traj = fresh_record_trajectory(horizon)
        del passes[:]
        report = check_nontriviality_conditions(traj)
        assert report.stabilization_time == 0
        assert report.p_dynamics.status == "pass"
        assert report.checked_steps == horizon - 1
        for n in range(1, horizon + 1):
            assert rank_tracked(traj, n) == 10**6 + n - 1
            assert decompose_tracked(traj, n).record_time == n
        return len(passes)

    assert count(2000) == count(20) == 1


def test_condition_checks_multiply_linearly_in_the_horizon(monkeypatch):
    # one early dominant record keeps every later step inside its window, so
    # q2 = x_2 ... x_n spans the whole trajectory; the checks read only q1,
    # and building q2 at every step would cost O(H^2) multiplies
    calls = []
    original = analysis.multiply

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(analysis, "multiply", counted)

    def count(horizon):
        traj = Trajectory(
            [10**6] + [1] * (horizon - 1),
            bytearray(horizon),
            elements={i: (None, None, PE) for i in range(horizon)},
            zs=[PE] * horizon,
        )
        del calls[:]
        report = check_nontriviality_conditions(traj)
        assert report.stabilization_time == 0
        assert report.p_dynamics.status == "pass"
        assert report.checked_steps == horizon - 1
        return len(calls)

    assert count(250) <= 250
    assert count(1000) <= 1000


def _reference_tracked_q1(traj, n, c):
    """The parent's ``_tracked_q1``, kept verbatim for the reference loop."""
    level = rank_tracked(traj, n)
    if level == 0:
        return None
    m = analysis._scan(traj)[1][n - 1]
    if traj.red[m - 1]:
        raise AssertionError("stable step with a red dominant record")
    q1 = traj.z(m - 1) if traj.z_materialized(m - 1) else None
    if c is not None and q1 is not None and m > 1:
        analysis._assert_window_membership(c, level, q1, m)
    return level, m, q1


def _reference_rank_growth(traj):
    horizon = traj.horizon
    flags, dom, _ = analysis._scan(traj)

    def rank_at(i):
        return traj.k[dom[i - 1] - 1] if flags[i - 1] else 0

    early = rank_at(max(1, horizon // 10))
    late = rank_at(horizon)
    if late > early:
        return analysis.ConditionStatus(
            "pass", f"max rank grew {early} -> {late} over the last decade of steps"
        )
    return analysis.ConditionStatus(
        "censored" if late == early and late > 0 else "fail",
        f"max rank {early} -> {late}; growth exhausted (truncated levels rank out)",
    )


def reference_conditions(traj, c=None):
    """The per-step loop ``check_nontriviality_conditions`` replaced, verbatim."""
    ConditionStatus, ConditionReport = analysis.ConditionStatus, analysis.ConditionReport
    i0 = detect_stabilization(traj)
    horizon = traj.horizon
    if i0 is None:
        censored = ConditionStatus("censored", "no stabilization within horizon")
        return ConditionReport(None, censored, censored,
                               _reference_rank_growth(traj), 0)

    flags, dom, _ = analysis._scan(traj)
    first_bad = next((i for i in range(i0 + 1, horizon + 1) if not flags[i - 1]), None)
    membership = ConditionStatus(
        "pass" if first_bad is None else "fail",
        "tracked window membership holds at every post-stabilization step"
        if first_bad is None
        else f"step {first_bad} lost the window form",
        i0 + 1,
    )

    checked = 0
    p_bad = None
    for i in range(max(i0 + 1, 1), horizon):
        checked += 1
        same = dom[i] == dom[i - 1]
        fresh = dom[i] == i + 1
        if not (same or fresh):
            p_bad = i + 1
            break
        if traj.z_materialized(i + 1) and traj.z_materialized(i):
            # the law reads only q1 = z_{m-1}, so q2 is never formed here
            t_next = _reference_tracked_q1(traj, i + 1, c)
            t_here = _reference_tracked_q1(traj, i, c)
            if t_next is not None and t_here is not None and t_next[2] is not None:
                target = t_here[2] if same else traj.z(i)
                if t_next[2] != target:
                    p_bad = i + 1
                    break
    p_dyn = ConditionStatus(
        "pass" if p_bad is None else "fail",
        "level-drop map moved by a step or stayed fixed at every transition"
        if p_bad is None
        else f"transition into step {p_bad} broke the level-drop law",
        i0 + 1,
    )
    return ConditionReport(i0, membership, p_dyn, _reference_rank_growth(traj), checked)


# z values that obey no law: two the certificates cover, one far out of reach
HUGE = LamplighterElement((10**400,), 0)
Z_POOL = (PE, ProductElement(LAMP_A, LAMP_A), ProductElement(HUGE, HUGE))


def random_trajectory(rng):
    """Tie-heavy levels, about 20% red steps, arbitrary z values on a random
    materialized prefix, and increments at random steps."""
    n = rng.randrange(1, 30)
    span = rng.choice((2, 3, 5, 40, 80))
    ks = [rng.randrange(1, span) for _ in range(n)]
    red = bytearray(rng.random() < 0.2 for _ in range(n))
    prefix = rng.choice((0, n, rng.randrange(n + 1)))
    zs = [rng.choice(Z_POOL) for _ in range(prefix)]
    elements = {i: (None, None, rng.choice(Z_POOL)) for i in range(n) if rng.random() < 0.5}
    return Trajectory(ks, red, None, elements, zs)


def _outcome(check, traj, c):
    try:
        return check(traj, c)
    except MembershipError as exc:
        return exc


@pytest.mark.parametrize("fixture", [None, "mini_asym", "deep_asym"])
def test_conditions_match_the_per_step_loop(fixture, request):
    # the reference certifies a record's q1 only at steps where z_{i+1} is
    # also materialized; the scan certifies each tail record once, so where
    # the reference raises the scan raises too, and where the scan passes
    # both give the same report
    c = request.getfixturevalue(fixture) if fixture else None
    rng = random.Random(44)
    stabilized = equal = 0
    for _ in range(5000):
        traj = random_trajectory(rng)
        want = _outcome(reference_conditions, traj, c)
        got = _outcome(check_nontriviality_conditions, traj, c)
        if isinstance(want, MembershipError):
            assert isinstance(got, MembershipError), traj
            continue
        if isinstance(got, MembershipError):
            continue
        assert got == want, traj
        equal += 1
        stabilized += got.stabilization_time is not None
    assert equal > 3000 and stabilized > 1000


def test_each_tail_record_is_certified():
    # the tail record at step 2 has q1 = z_1 far outside A(1,5)^1; x_2 is not
    # materialized, so no step offers the pair (z_1, z_2) a per-step check needs
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(10)
    z1 = ProductElement(HUGE, HUGE)
    traj = Trajectory([1, 5], bytearray(2), elements={0: (None, None, z1)}, zs=[z1])
    assert reference_conditions(traj, c).p_dynamics.status == "pass"
    with pytest.raises(MembershipError, match=r"tracked q1 escapes the A\(1,5\)\^1 certificate"):
        check_nontriviality_conditions(traj, c)


def test_steps_view_writes_back_to_the_columns():
    traj = fresh_record_trajectory(6)
    assert len(traj.steps) == 6 and traj.steps[-1] == traj.step(5)
    assert list(traj.steps) == traj.steps[:] == traj.steps
    assert detect_stabilization(traj) == 0
    traj.steps[3] = CoupledStep(2, "red", 1)
    assert traj.ks() == [10**6, 10**6 + 1, 10**6 + 2, 2, 10**6 + 4, 10**6 + 5]
    assert traj.steps[3] == CoupledStep(2, "red", 1)
    assert len(traj.zs) == 3 and not traj.z_materialized(4)
    assert stable_so_far_flags(traj) == [True] * 6
    traj.steps[5] = CoupledStep(10**6 + 4, "blue", 1, x=PE)
    assert detect_stabilization(traj) is None
    with pytest.raises(ValueError):
        traj.steps[0] = CoupledStep(1, "blue", -1)


def test_metadata_walk_and_analysis_build_no_step_objects(mini_asym, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a CoupledStep was built")

    monkeypatch.setattr(sampling, "CoupledStep", refuse)
    kd = KDistribution(truncation=10**4)
    rng = random.Random(43)
    for idx in range(20):
        # the last walks materialize the levels mini_asym has built
        traj = walk(mini_asym, 300, rng, kdist=kd, x_level_cap=0 if idx < 15 else 2)
        trajectory_report(traj, mini_asym)
        sampling.write_trajectory_csv(tmp_path / f"t{idx}.csv", traj)


# -- exhaustive oracle properties -------------------------------------------------------


@pytest.mark.parametrize("fixture", ["mini_asym", "mini_sym"])
def test_unique_decomposition_and_disjointness(fixture, request):
    c = request.getfixturevalue(fixture)
    oracle = WindowOracle(c)
    for level in (1, 2):
        ok, witnesses = oracle.index(level).certify_unique()
        assert ok, witnesses
        okp, witnessesp = oracle.index(level, prime=True).certify_unique()
        assert okp, witnessesp
    w1, w2 = oracle.index(1), oracle.index(2)
    assert not any(g in w2 for g in w1.iter_elements())


def _reference_factor(mids, qa_list, qb_list) -> dict:
    """The element-by-element build: form -> [(slice id, qa index, qb index)]."""
    values = {}
    for sid, mid in enumerate(mids):
        for ia, qa in enumerate(qa_list):
            left = multiply(qa, mid)
            for ib, qb in enumerate(qb_list):
                values.setdefault(multiply(left, qb), []).append((sid, ia, ib))
    return values


def _entries(index, j, f) -> list:
    """The (slice id, qa index, qb index) entries of factor j's form id f,
    ascending, under factor j's own slice ids: factor 2 reads its map's
    slice sid as slice ``own_slice[sid]``."""
    own = index.own_slice if j else range(len(index.slices))
    fm = index.factors[j]
    return sorted((own[sid], ia, ib) for sid, ia, ib in map(fm.decode, fm.codes(f)))


@pytest.mark.parametrize("fixture", ["mini_asym", "mini_sym"])
def test_window_index_matches_the_elementwise_build(fixture, request):
    c = request.getfixturevalue(fixture)
    oracle = WindowOracle(c)
    for level in (1, 2):
        lv = c.level(level)
        for prime in (False, True):
            index = oracle.index(level, prime)
            mids = [lv.blue_increment(index.fs[i1], index.fs[i2], s) for i1, i2, s in index.slices]
            for j, fm in enumerate(index.factors):
                ref = _reference_factor([x[j] for x in mids], fm.qa_list, fm.qb_list)
                assert fm.values.keys() == ref.keys()
                if j == 0:  # factor 1 numbers its forms in order of first occurrence
                    assert list(fm.values) == list(ref)
                for g, entries in ref.items():
                    assert _entries(index, j, fm.values[g]) == entries


def _code_forms(fm, own_slice=None) -> list:
    """The form of each entry code, in code order: what a factor map stores.
    With ``own_slice``, the map's slice sid is read as slice own_slice[sid]."""
    forms = list(fm.values)
    out = [forms[f] for f in fm.ids]
    if own_slice is None:
        return out
    block = len(fm.qa_list) * len(fm.qb_list)
    renamed = [None] * len(out)
    for src, sid in enumerate(own_slice):
        renamed[sid * block:(sid + 1) * block] = out[src * block:(src + 1) * block]
    return renamed


def _assert_direct_build(c, index):
    """Factor 2, read through ``own_slice``, equals its map built directly
    over its parts with the index's q lists: the same form at every code,
    and the same entries per form.  Returns the index with that direct map
    as its factor 2."""
    lv = c.level(index.level)
    parts = [lv.blue_increment(index.fs[i1], index.fs[i2], s).right for i1, i2, s in index.slices]
    fm = index.factors[1]
    direct = copy.copy(index)
    direct.factors = [index.factors[0], index._build_factor(parts, fm.qa_list, fm.qb_list)]
    direct.own_slice = range(len(index.slices))
    built = direct.factors[1]
    assert _code_forms(fm, index.own_slice) == _code_forms(built)
    assert fm.values.keys() == built.values.keys()
    for g, f in built.values.items():
        assert _entries(index, 1, fm.values[g]) == _entries(direct, 1, f)
    return direct


FIXTURES = ["mini_asym", "mini_sym", "mini_asym_small", "mini_sym_small"]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_factor_2_holds_factor_1s_map(fixture, request, factor_builds):
    # the factors share b1, b2 and their A cores, so factor 2's slice
    # (i2, i1, s) has the part of factor 1's slice (i1, i2, s)
    c = request.getfixturevalue(fixture)
    for level in (1, 2):
        for prime in (False, True):
            factor_builds.clear()
            index = analysis.WindowIndex(c, level, prime)
            assert factor_builds == [len(index.slices)]
            assert index.factors[1] is index.factors[0]
            swapped = [(i2, i1, s) for i1, i2, s in index.slices]
            assert [index.slices[sid] for sid in index.own_slice] == swapped


@pytest.mark.parametrize("fixture", FIXTURES)
def test_relabeled_factor_equals_the_direct_build(fixture, request):
    c = request.getfixturevalue(fixture)
    for level in (1, 2):
        for prime in (False, True):
            index = analysis.WindowIndex(c, level, prime)
            direct = _assert_direct_build(c, index)
            # each reader of factor 2's codes answers as over the direct map
            assert index.certify_unique() == direct.certify_unique()
            for g in itertools.islice(index.iter_elements(), 0, 3000, 29):
                assert index.decompositions(g) == direct.decompositions(g)
            if level == 1 or fixture == "mini_asym_small":  # at most 44,100 joint forms
                assert Counter(index.iter_elements()) == Counter(direct.iter_elements())


def _reference_iter_elements(index):
    """The joint forms as ``iter_elements`` once listed them: factor 2's forms
    gathered per slice from its codes grouped by form, then factor 1's codes
    read form by form."""
    f1, f2 = index.factors
    block1 = len(f1.qa_list) * len(f1.qb_list)
    block2 = len(f2.qa_list) * len(f2.qb_list)
    rev = {}
    for f, form in enumerate(f2.values):
        for code in f2.codes(f):
            rev.setdefault(index.own_slice[code // block2], []).append(LamplighterElement(*form))
    for f, form in enumerate(f1.values):
        for code in f1.codes(f):
            for g2 in rev.get(code // block1, ()):
                yield ProductElement(LamplighterElement(*form), g2)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_joint_forms_are_the_reference_multiset(fixture, request):
    c = request.getfixturevalue(fixture)
    for level in (1, 2) if fixture == "mini_asym_small" else (1,):  # at most 44,100 joint forms
        for prime in (False, True):
            index = analysis.WindowIndex(c, level, prime)
            forms = list(index.iter_elements())
            assert Counter(forms) == Counter(_reference_iter_elements(index))
            assert list(itertools.islice(index.iter_elements(), 7)) == forms[:7]


def test_the_first_joint_form_reads_one_slice(mini_sym):
    # symmetric mini level 2 has 326,861,312 joint forms; the first one
    # groups no codes by form
    index = analysis.WindowIndex(mini_sym, 2)
    g = next(index.iter_elements())
    assert index.factors[1] is index.factors[0]
    assert "_grouped" not in vars(index.factors[0])
    assert index.decompositions(g)


def test_a_slice_map_that_repeats_slices_builds_factor_2_directly(mini_sym_small, monkeypatch, factor_builds):
    # both parts of slice sid are planted as factor 1's part of slice sid // 2:
    # each factor-2 part is a factor-1 part, but two slices hold each one, so
    # factor 2's slices are no permutation of factor 1's
    lv = mini_sym_small.level(2)
    index = WindowOracle(mini_sym_small).index(2)
    slice_of = {(index.fs[i1], index.fs[i2], s): sid for sid, (i1, i2, s) in enumerate(index.slices)}
    lefts = [lv.blue_increment(index.fs[i1], index.fs[i2], s).left for i1, i2, s in index.slices]

    def planted(f1, f2, s):
        part = lefts[slice_of[f1, f2, s] // 2]
        return ProductElement(part, part)

    monkeypatch.setattr(lv, "blue_increment", planted)
    factor_builds.clear()
    index = analysis.WindowIndex(mini_sym_small, 2)
    assert factor_builds == [len(index.slices)] * 2
    assert index.factors[1] is not index.factors[0]
    assert index.own_slice == range(len(index.slices))
    _assert_direct_build(mini_sym_small, index)


def test_a_factor_with_other_q_lists_or_parts_is_built_directly(factor_builds, monkeypatch):
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(2)
    # factor 2's q2 ranges over A^2 instead of A: its qb list differs
    a_power = Construction.a_power
    with monkeypatch.context() as m:
        m.setattr(c, "a_power", lambda j, i, p: a_power(c, j, i, 2 if j == 2 else p))
        index = analysis.WindowIndex(c, 2)
    first, second = index.factors
    assert second.qa_list == first.qa_list and second.qb_list != first.qb_list
    assert len(factor_builds) == 2 and index.own_slice == range(len(index.slices))
    _assert_direct_build(c, index)
    # factor 2 with its own outer switcher: its parts are no factor-1 parts
    level = c.levels[1]
    level.factors = (level.factor(1), replace(level.factor(2), b2=level.factor(1).b1))
    factor_builds.clear()
    index = analysis.WindowIndex(c, 2)
    first, second = index.factors
    assert (second.qa_list, second.qb_list) == (first.qa_list, first.qb_list)
    assert len(factor_builds) == 2 and index.own_slice == range(len(index.slices))
    _assert_direct_build(c, index)


def _is_element(g) -> bool:
    if type(g) is ProductElement:
        return all(type(x) is LamplighterElement for x in g)
    return type(g) is LamplighterElement


@pytest.mark.parametrize("fixture", ["mini_asym_small", "mini_sym_small"])
def test_only_elements_leave_the_window_index(fixture, request):
    # the index stores forms as plain (lamps, cursor) tuples; each one it
    # hands out is rebuilt as an element, which encode accepts
    index = WindowOracle(request.getfixturevalue(fixture)).index(2, prime=True)
    forms = list(itertools.islice(index.iter_elements(), 20_000))  # all 2500 of mini_asym_small
    assert forms and all(_is_element(g) for g in forms)
    for g in forms[::len(forms) // 500 + 1]:
        encode(g)
        decs = index.decompositions(g)
        assert decs
        for d in decs:
            for part in (d.q1, d.f1, d.f2, d.q2):
                assert _is_element(part)
                encode(part)
    # a planted same-slice collision on a real form: its witness key is an element
    key = next(iter(index.factors[0].values))
    ok, witnesses = _planted(index, {key: [(0, 0, 0), (0, 1, 0)]}, {}).certify_unique()
    assert not ok and witnesses[0][0] == key
    assert _is_element(witnesses[0][0])
    encode(witnesses[0][0])


def _planted(index, values1, values2):
    """A copy of ``index`` whose two factor maps hold the given (slice id, qa
    index, qb index) entries over seven slices of three qa and three qb
    choices, stored as a build stores them; every other entry code gets a
    form of its own, which no planted form equals."""
    planted = copy.copy(index)
    qs = [LAMP_A] * 3

    def factor(values):
        forms = [("unplanted", code) for code in range(7 * len(qs) * len(qs))]
        for g, entries in values.items():
            for sid, ia, ib in entries:
                forms[(sid * len(qs) + ia) * len(qs) + ib] = g
        return analysis._FactorMap.interned(forms, qs, qs)

    planted.factors = [factor(values1), factor(values2)]
    planted.own_slice = range(7)
    return planted


def _reference_certify_unique(index):
    """``certify_unique`` with one set, sort and pair loop per multi-entry
    form, over each factor's form -> [codes] dict in its own code order."""
    pair_witnesses = []
    cross = [set(), set()]
    for fi, fm in enumerate(index.factors):
        block = len(fm.qa_list) * len(fm.qb_list)
        values = {}
        for code, g in enumerate(_code_forms(fm, index.own_slice if fi else None)):
            values.setdefault(g, []).append(code)
        for g, codes in values.items():
            if len(codes) == 1:
                continue
            sids = sorted({code // block for code in codes})
            if len(sids) < len(codes):
                per_slice = {}
                for code in codes:
                    sid, ia, ib = fm.decode(code)
                    per_slice.setdefault(sid, []).append((ia, ib))
                for sid, qs in per_slice.items():
                    if len(qs) > 1:
                        pair_witnesses.append((analysis._lamp(*g), sid, qs[:2]))
            if len(sids) > 1:
                cross[fi].update(itertools.combinations(sids, 2))
        if pair_witnesses:
            return False, pair_witnesses
    both = cross[0] & cross[1]
    if both:
        return False, sorted(both)
    return True, []


# planted forms: plain (lamps, cursor) tuples, as a build stores them
G, H, K, M, X, Y, Z = (((), t) for t in range(7))


def test_certify_unique_reports_planted_collisions(mini_asym_small):
    index = WindowOracle(mini_asym_small).index(1)
    assert index.certify_unique() == (True, [])
    # a form reached twice inside slice 0 of factor 1; its first two q-choices are the witness
    same = {G: [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 2, 2)], H: [(2, 0, 0)]}
    assert _planted(index, same, {}).certify_unique() == (False, [(G, 0, [(0, 0), (1, 0)])])
    # factor 2's same-slice collisions count only when factor 1 has none
    other = {X: [(4, 0, 1), (4, 1, 1)]}
    assert _planted(index, same, other).certify_unique() == (False, [(G, 0, [(0, 0), (1, 0)])])
    assert _planted(index, {}, other).certify_unique() == (False, [(X, 4, [(0, 1), (1, 1)])])
    # slices 0 and 3, and 1 and 5, meet in both factors: sorted slice pairs
    f1 = {G: [(3, 0, 0), (0, 0, 0)], K: [(5, 0, 0), (1, 0, 0), (3, 1, 1)], M: [(2, 0, 0)]}
    f2 = {X: [(0, 0, 0), (3, 0, 0)], Y: [(1, 0, 0), (5, 0, 0)], Z: [(2, 1, 0), (4, 0, 0)]}
    assert _planted(index, f1, f2).certify_unique() == (False, [(0, 3), (1, 5)])
    # slices that meet in one factor only are no collision
    assert _planted(index, f1, {Z: [(2, 1, 0), (4, 0, 0)]}).certify_unique() == (True, [])
    # K lies in slices 1, 3 and 5 of factor 1, so its later slices 3 and 5 meet as well
    later = {Y: [(3, 0, 0), (5, 2, 1)]}
    assert _planted(index, f1, later).certify_unique() == (False, [(3, 5)])


def test_a_relabeled_factor_meets_where_its_permutation_moves_the_slices(mini_asym_small):
    # factor 2 holds factor 1's map rotated: factor-1 slice sid is its slice sid - 1 (mod 7)
    index = WindowOracle(mini_asym_small).index(1)
    own_slice = [6, 0, 1, 2, 3, 4, 5]
    # G puts factor 1's meeting pair (0, 3) at (2, 6) in factor 2, and K
    # puts factor 1's (2, 6) at (1, 5)
    one = {G: [(0, 0, 0), (3, 1, 2)]}
    two = {G: [(0, 0, 0), (3, 1, 2)], K: [(2, 0, 0), (6, 2, 1)]}
    for values, want in ((one, (True, [])), (two, (False, [(2, 6)]))):
        planted = _planted(index, values, {})
        planted.factors[1] = planted.factors[0]
        planted.own_slice = own_slice
        # the same forms planted in a factor 2 of its own, under its slice ids
        moved = {g: [(own_slice[sid], ia, ib) for sid, ia, ib in entries] for g, entries in values.items()}
        assert planted.certify_unique() == _planted(index, values, moved).certify_unique() == want
        assert planted.certify_unique() == _reference_certify_unique(planted)


def test_window_index_footprint():
    # symmetric mini level 2: 105,280 distinct forms per factor and 204,544
    # codes each.  Factor 2's slices are factor 1's permuted, so both
    # factors hold one map and factor 2 adds no per-code storage.  A form's
    # tuples take about 190 bytes, its dict entry and id about 80; a code
    # takes 4 bytes in ``ids`` and 4 in ``by_form``.  A form -> [codes]
    # dict per factor retained 61.5 MB.
    c = Construction("symmetric", "mini", Config(brute_verify=False))
    c.build_to(2)
    tracemalloc.start()
    try:
        index = analysis.WindowIndex(c, 2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    first, second = index.factors
    forms = len(first.values)
    codes = sum(len(index.slices) * len(fm.qa_list) * len(fm.qb_list) for fm in index.factors)
    assert (forms, codes) == (105_280, 409_088)
    assert second is first
    assert retained <= 320 * forms + 16 * len(first.ids)


def test_certify_unique_matches_the_reference_loop(mini_sym, mini_asym_small):
    oracle = WindowOracle(mini_sym)
    for level in (1, 2):
        for prime in (False, True):
            index = oracle.index(level, prime)
            assert index.certify_unique() == _reference_certify_unique(index) == (True, [])
    index = WindowOracle(mini_asym_small).index(1)
    same = {G: [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 2, 2)], H: [(2, 0, 0)], K: [(1, 1, 0), (1, 2, 1)]}
    f1 = {G: [(3, 0, 0), (0, 0, 0)], K: [(5, 0, 0), (1, 0, 0), (3, 1, 1)], M: [(2, 0, 0)]}
    f2 = {X: [(0, 0, 0), (3, 0, 0)], Y: [(1, 0, 0), (5, 0, 0)], Z: [(2, 1, 0), (4, 0, 0)]}
    pair = {X: [(6, 2, 2), (6, 0, 1)], Y: [(4, 0, 0), (1, 1, 1)]}
    later = {Y: [(3, 0, 0), (5, 2, 1)]}
    for values1, values2 in ((same, {}), ({}, pair), (f1, f2), (f2, f1), (f1, pair), (pair, f2), (f1, later)):
        planted = _planted(index, values1, values2)
        assert planted.certify_unique() == _reference_certify_unique(planted)


def test_identity_has_no_decomposition(mini_asym):
    assert decompose_oracle(mini_asym, PE, 1) is None
    assert decompose_oracle(mini_asym, PE, 2) is None


def test_oracle_roundtrip_and_rank_decrease(mini_asym):
    oracle = WindowOracle(mini_asym)
    for level in (1, 2):
        seen = 0
        for g in itertools.islice(oracle.index(level).iter_elements(), 300):
            d = decompose_oracle(oracle, g, level)
            assert d is not None and d is not MULTIPLE
            assert recompose(mini_asym, d) == g
            q1 = p_map(d)
            assert window_rank(oracle, q1, 2) < level
            seen += 1
        assert seen


def test_p_equivariance_on_absorbed_translates(mini_asym):
    # h w for h in A x A and w in W' stays in W with the translated left part;
    # the exhaustive uniqueness scan makes the translated tuple the only
    # decomposition, and this spot check multiplies the elements out
    c = mini_asym
    oracle = WindowOracle(c)
    rng = random.Random(33)
    for level in (1, 2):
        wprime = oracle.index(level, prime=True)
        sample = list(itertools.islice(wprime.iter_elements(), 40))
        a1 = c.a_set(1, level).sorted_elements()
        a2 = c.a_set(2, level).sorted_elements()
        for w in sample:
            h = ProductElement(rng.choice(a1), rng.choice(a2))
            hw = multiply(h, w)
            dw = decompose_oracle(oracle, w, level)
            dhw = decompose_oracle(oracle, hw, level)
            assert dw is not None and dw is not MULTIPLE
            assert dhw is not None and dhw is not MULTIPLE
            assert p_map(dhw) == multiply(h, p_map(dw))


# -- tails, freeness, conditions -----------------------------------------------------------


def test_tau_deposit_levels_strictly_increase(mini_asym, mini_walks):
    for traj in mini_walks:
        tail = tau_extract(traj)
        levels = [e.level for e in tail.entries]
        assert levels == sorted(set(levels))
        for entry in tail.entries:
            assert entry.element == traj.z(entry.time - 1)


def test_tau_suffix_consistency(mini_asym, mini_walks):
    # recomputing the deposits from the step metadata restricted to a suffix
    # (starting before the first deposit) reproduces the same tail entries
    for traj in mini_walks:
        tail = tau_extract(traj)
        if not tail.entries:
            continue
        first = tail.entries[0].time
        for cut in range(0, min(first - 1, 3)):
            suffix = Trajectory(traj.k[cut:], traj.red[cut:])
            i0 = detect_stabilization(suffix)
            assert i0 is not None
            dom = dominant_record_times(suffix)
            times = sorted(
                {dom[i - 1] + cut for i in range(i0 + 1, suffix.horizon + 1)}
            )
            shared = [t for t in times if t >= first]
            assert shared
            assert shared == [e.time for e in tail.entries if e.time >= min(shared)]


def test_tau_censored_without_stabilization():
    traj = ky_trajectory([3, 2, 2, 2, 2])
    tail = tau_extract(traj)
    assert tail.censored and not tail.entries


def test_freeness_identity_and_translates(deep_asym, mini_walks):
    h = ProductElement(LAMP_A, lamplighter_group().identity())
    for traj in mini_walks:
        assert freeness_test(traj, PE, deep_asym) == "identical"
        assert freeness_test(traj, h, deep_asym) == "distinct"


@pytest.mark.parametrize("text", ["0|0", "1,2", "((0|;0|);0|)"])
def test_freeness_refuses_an_element_that_is_not_a_lamp_pair(deep_asym, mini_walks, text):
    # the walks have stabilized, so a translate would reach h's components
    h = decode(text)
    for traj in mini_walks:
        with pytest.raises(GroupMismatchError, match="pair of lamplighter elements"):
            freeness_test(traj, h, deep_asym)


def test_freeness_censored_when_unmaterialized(mini_asym):
    # the only deposit is z_2, which a metadata-only trajectory cannot carry
    # (z_0 = identity would be free, but the record here is at step 3)
    traj = ky_trajectory([2, 1, 10**6, 1])
    assert detect_stabilization(traj) == 2
    h = ProductElement(LAMP_A, lamplighter_group().identity())
    assert freeness_test(traj, h, mini_asym) == "censored"


def reference_freeness(traj, h, c):
    """The translate-and-compare loop ``freeness_test`` replaced, kept verbatim."""
    tail = tau_extract(traj)
    if tail.censored or not tail.entries:
        return "censored"
    level_needed = max(
        c.membership_level(1, h.left), c.membership_level(2, h.right)
    )
    compared = 0
    differs = False
    for entry in tail.entries:
        if entry.level < level_needed or entry.element is None:
            continue
        compared += 1
        if multiply(h, entry.element) != entry.element:
            differs = True
    if compared == 0:
        return "censored"
    return "distinct" if differs else "identical"


# the identity, generators in and past the built cores, and (0|;5|0,3,4),
# whose membership level (5021) lies past any level these walks reach
FREENESS_GENERATORS = [
    "(0|;0|)", "(0|0;0|)", "(0|;0|0)", "(1|;1|)", "(-1|;0|)", "(3|;0|)",
    "(2|0,1;-1|)", "(0|;5|0,3,4)",
]


def test_freeness_verdict_matches_the_translate_and_compare_loop():
    c = Construction("asymmetric", "mini")
    c.build_to(300)
    gens = [decode(t) for t in FREENESS_GENERATORS]
    tally = {"distinct": 0, "identical": 0, "censored": 0}
    for truncation in (50, 10**4):
        kd = KDistribution(truncation=truncation)
        for cap, horizon in itertools.product((300, 5, 0), (5, 40, 200)):
            for seed in range(30):
                traj = walk(c, horizon, random.Random(seed), kdist=kd, x_level_cap=cap)
                for h in gens:
                    verdict = freeness_test(traj, h, c)
                    assert verdict == reference_freeness(traj, h, c), (truncation, cap, horizon, seed, h)
                    tally[verdict] += 1
    assert c.max_built == 300
    assert sum(tally.values()) == 4320
    assert min(tally.values()) >= 300, tally


def test_freeness_forms_no_product(deep_asym, mini_walks, monkeypatch):
    def refused(a, b):
        raise AssertionError("freeness_test multiplied")

    monkeypatch.setattr(analysis, "multiply", refused)
    monkeypatch.setattr(groups, "multiply", refused)
    h = ProductElement(LAMP_A, lamplighter_group().identity())
    for traj in mini_walks:
        assert freeness_test(traj, PE, deep_asym) == "identical"
        assert freeness_test(traj, h, deep_asym) == "distinct"


def test_conditions_report_on_stabilized(deep_asym, mini_walks):
    for traj in mini_walks:
        report = check_nontriviality_conditions(traj, deep_asym)
        assert report.stabilization_time is not None
        assert report.window_membership.status == "pass"
        assert report.p_dynamics.status == "pass"
        assert report.checked_steps > 0
        assert report == reference_conditions(traj, deep_asym)


def test_conditions_censored_without_stabilization():
    traj = ky_trajectory([3, 2, 2, 2, 2])
    report = check_nontriviality_conditions(traj)
    assert report.window_membership.status == "censored"
    statuses = (report.window_membership, report.p_dynamics, report.rank_growth)
    assert not all(s.status == "pass" for s in statuses)


def test_rank_growth_fails_on_saturated_truncation(mini_asym):
    # a tiny truncation caps the attainable rank, so growth stalls
    kd = KDistribution(truncation=3)
    rng = random.Random(34)
    traj = walk(mini_asym, 500, rng, kdist=kd, x_level_cap=0)
    report = check_nontriviality_conditions(traj)
    assert report.rank_growth.status in ("fail", "censored")
