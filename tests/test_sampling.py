"""Coupled sampling: level law, color coupling, increments, exact pmf oracle."""

import bisect
import csv
import dataclasses
import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from lampwalk.analysis import analyze_records, stable_so_far_flags
from lampwalk.construction import Config, Construction, Level
from lampwalk.errors import CorruptFileError, LampwalkError
from lampwalk.groups import (
    LAMP_A,
    LAMP_IDENTITY,
    AbelianControlElement,
    LamplighterElement,
    ProductElement,
    encode,
    inverse,
    multiply,
)
from lampwalk.sampling import (
    TRAJECTORY_COLUMNS,
    CoupledStep,
    KDistribution,
    Trajectory,
    _blue_parses,
    pmf_eval,
    read_trajectory_csv,
    sample_x,
    sample_y,
    walk,
    write_trajectory_csv,
)
from lampwalk.tvbound import exact_joint_pmf
from lampwalk.verify import PMF_REL_TOL


def test_normalizer_against_partial_sum_oracle():
    # independent summation; the four leading digits are frozen here
    kd = KDistribution(truncation=10**6)
    oracle = math.fsum(k ** -1.25 for k in range(1, 10**6 + 1))
    assert abs(kd.normalizer - oracle) < 1e-9
    assert round(oracle, 4) == 4.4686
    assert abs(kd.pmf(1) - 1 / oracle) < 1e-12
    assert round(kd.pmf(1), 4) == 0.2238


def test_tables_match_the_list_formula():
    for truncation, exponent in ((1, 1.25), (7, 1.25), (5000, 1.25), (300, 2.0)):
        kd = KDistribution(truncation, exponent)
        weights = [k ** -exponent for k in range(1, truncation + 1)]
        normalizer = math.fsum(weights)
        pmf = [w / normalizer for w in weights]
        cum = []
        acc = 0.0
        for p in pmf:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0
        assert kd.normalizer == normalizer
        assert kd.pmf_vector() == pmf
        assert [kd.pmf(k) for k in range(0, truncation + 2)] == [0.0, *pmf, 0.0]
        assert list(kd._cum) == cum


class _FixedUniforms(random.Random):
    """A Random whose ``random()`` returns the given values in turn."""

    def __init__(self, us):
        super().__init__(0)
        self._us = iter(us)

    def random(self):
        return next(self._us)


# (truncation, exponent): a single level, guides of 1, 2 and 8 buckets, both
# sides of the 2**14 cap, and the default truncation
GUIDED_LAWS = [
    (1, 1.25), (2, 1.25), (7, 1.25), (2**14 - 1, 1.25), (2**14, 1.25), (2**14 + 1, 1.25),
    (10**5, 1.25), (10**6, 1.25), (300, 2.0),
]


def bucket_edges(scale):
    """Every bucket edge j / scale and both float neighbours of each."""
    edges = [j / scale for j in range(scale + 1)]
    return [v for e in edges for v in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]


@pytest.mark.parametrize("truncation, exponent", GUIDED_LAWS)
def test_guided_draw_is_the_full_table_bisect(truncation, exponent, mini_asym):
    kd = KDistribution(truncation, exponent)
    us = bucket_edges(kd._scale)
    rng = random.Random(truncation)
    us += [rng.random() for _ in range(10**5)]
    expected = [bisect.bisect_right(kd._cum, u) + 1 for u in us]
    assert walk(mini_asym, len(us), _FixedUniforms(us), kd, x_level_cap=0).k == expected
    draws = _FixedUniforms(us)
    assert [kd.sample(draws) for _ in us] == expected


@pytest.mark.parametrize("truncation", [1, 7, 4095, 4096, 4097, 10**5])
def test_two_step_draw_is_the_full_table_bisect(truncation, mini_asym):
    # a bucket read, then a bisect inside the bucket; here u is planted on
    # table entries and both float neighbours of each, where bisect_right
    # must step past an entry equal to u
    kd = KDistribution(truncation)
    cum = list(kd._cum)
    rng = random.Random(truncation)
    picked = sorted({*range(min(truncation, 64)), truncation - 1, *rng.sample(range(truncation), min(truncation, 256))})
    us = [v for i in picked for v in (math.nextafter(cum[i], 0.0), cum[i], math.nextafter(cum[i], 2.0))]
    us += [rng.random() for _ in range(10**5)]
    us = [u for u in us if u < 1.0]  # random() never returns 1.0
    expected = [bisect.bisect_right(cum, u) + 1 for u in us]
    assert walk(mini_asym, len(us), _FixedUniforms(us), kd, x_level_cap=0).k == expected
    draws = _FixedUniforms(us)
    assert [kd.sample(draws) for _ in us] == expected


@pytest.mark.parametrize("truncation, exponent", GUIDED_LAWS)
def test_guide_table_invariants(truncation, exponent):
    kd = KDistribution(truncation, exponent)
    scale, guide, exact = kd._scale, kd._guide, kd._exact
    assert scale == min(2**14, 1 << (truncation - 1).bit_length())
    assert len(guide) == scale + 2 and len(exact) == scale + 1
    assert list(guide) == [bisect.bisect_right(kd._cum, j / scale) for j in range(scale + 2)]
    for j, e in enumerate(exact):
        assert e == (guide[j] + 1 if guide[j] == guide[j + 1] else 0)
    # the bracket the guide relies on: j / scale <= u < (j + 1) / scale in
    # exact arithmetic, for the bucket j = int(u * scale) that u is drawn in
    for u in bucket_edges(scale):
        j = int(u * scale)
        assert Fraction(j, scale) <= Fraction(u) < Fraction(j + 1, scale)
    if truncation == 10**6:
        assert scale == 16384 and sum(1 for e in exact[:scale] if e) == 13298


def test_level_law_footprint():
    # 8 bytes per level for the cumulative array, up to 1/16 more for the
    # array's over-allocation, and the guide table's two int arrays of at
    # most 2**14 + 2 entries (0.7 bytes per level here): at most 10
    # retained.  The build overwrites its weights array with the sums, so
    # it peaks near that plus one chunk; 20 leaves room for a second array
    # but not for a list of floats, which costs 32 bytes per level.
    levels = 2 * 10**5
    tracemalloc.start()
    try:
        kd = KDistribution(levels)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kd.truncation == levels
    assert retained <= 10 * levels
    assert peak <= 20 * levels


def test_pmf_monotone_and_normalized():
    kd = KDistribution(truncation=1000)
    pmf = kd.pmf_vector()
    assert all(a > b for a, b in zip(pmf, pmf[1:]))
    assert abs(math.fsum(pmf) - 1.0) < 1e-12


def test_k_sampling_frequency_within_4_sigma():
    kd = KDistribution(truncation=10**6)
    rng = random.Random(20)
    n = 10**6
    hits = sum(1 for _ in range(n) if kd.sample(rng) == 1)
    p = kd.pmf(1)
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 4 * sigma


def test_red_rates_exact_coupling():
    rng = random.Random(21)
    n = 10**5
    for k, p in ((1, 0.5), (3, 0.125)):
        reds = sum(1 for _ in range(n) if sample_y(k, rng) == "red")
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(reds - n * p) < 4 * sigma
    # deep levels red out: astronomically unlikely, never in a short stream
    assert all(sample_y(500, rng) == "blue" for _ in range(1000))


def test_red_step_value_is_the_enumeration_pair(mini_asym):
    kd = KDistribution(truncation=1)
    rng = random.Random(22)
    lv = mini_asym.level(1)
    want = ProductElement(lv.factor(1).c, lv.factor(2).c)
    reds = 0
    for _ in range(200):
        traj = walk(mini_asym, 1, rng, kdist=kd)
        step = traj.steps[0]
        if step.y == "red":
            reds += 1
            assert step.x == want
    assert reds > 0


def test_walk_partial_products_recompute(mini_asym):
    kd = KDistribution(truncation=2)
    rng = random.Random(23)
    traj = walk(mini_asym, 40, rng, kdist=kd)
    z = None
    for i, step in enumerate(traj.steps, start=1):
        z = step.x if z is None else multiply(z, step.x)
        assert traj.z(i) == z


def reference_walk(c, horizon, rng, kdist, cap):
    """Steps and partial products drawn one step at a time, in the sampler's order."""
    steps, zs = [], []
    cum = list(kdist._cum)
    for _ in range(horizon):
        k = bisect.bisect_right(cum, rng.random()) + 1
        y = sample_y(k, rng)
        sigma = (1 if rng.getrandbits(1) else -1) if c.mode == "symmetric" else 1
        f1 = f2 = x = None
        if cap is None or k <= cap:
            level = c.level(k)
            if y == "red":
                x = ProductElement(level.factor(1).c, level.factor(2).c)
                if sigma == -1:
                    x = inverse(x)
            else:
                box = level.box()
                f1 = box.unrank(rng.randrange(box.size()))
                f2 = box.unrank(rng.randrange(box.size()))
                x = level.blue_increment(f1, f2, sigma)
        steps.append(CoupledStep(k, y, sigma, f1, f2, x))
        if x is not None and len(zs) == len(steps) - 1:
            zs.append(multiply(zs[-1], x) if zs else x)
    return steps, zs


@pytest.mark.parametrize(
    "fixture, truncation, cap",
    [
        ("mini_asym", 50, 0), ("mini_asym", 50, 1), ("mini_asym", 50, 2), ("mini_asym", 2, None),
        ("mini_sym", 50, 0), ("mini_sym", 50, 1), ("mini_sym", 50, 2), ("mini_sym", 2, None),
        ("paper_asym", 10**4, 0), ("paper_asym", 10**6, 0),
    ],
)
def test_walk_matches_a_per_step_reference(fixture, truncation, cap, request):
    c = request.getfixturevalue(fixture)
    kd = KDistribution(truncation=truncation)
    for seed in range(3):
        traj = walk(c, 150, random.Random(seed), kdist=kd, x_level_cap=cap)
        steps, zs = reference_walk(c, 150, random.Random(seed), kd, cap)
        assert list(traj.steps) == steps
        assert traj.zs == zs
        assert (traj.neg is not None) == (c.mode == "symmetric")
        rng, ref = random.Random(seed), random.Random(seed)
        assert [sample_x(c, rng, kd, cap) for _ in range(20)] == reference_walk(c, 20, ref, kd, cap)[0]


def test_assigning_a_step_recomputes_the_partial_products(mini_asym_small):
    c = mini_asym_small
    traj = walk(c, 6, random.Random(1), KDistribution(2))
    assert len(traj.zs) == 6
    red = c.level(1).red_increment()

    def products():
        xs = [step.x for step in traj.steps if step.x is not None]
        return list(itertools.accumulate(xs, multiply))

    traj.steps[2] = CoupledStep(1, "red", 1, x=red)
    assert traj.zs == products() and len(traj.zs) == 6
    traj.steps[1] = CoupledStep(3, "blue", 1)  # no increment: the products stop at step 1
    assert traj.zs == products()[:1]
    traj.steps[1] = CoupledStep(1, "red", 1, x=red)  # filling the gap extends them again
    assert traj.zs == products() and len(traj.zs) == 6
    assert traj.z(6) == traj.zs[-1]


def test_trajectory_csv_roundtrip_keeps_the_columns(mini_sym, tmp_path):
    traj = walk(mini_sym, 60, random.Random(7), kdist=KDistribution(truncation=50), x_level_cap=2)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, "d" * 64)
    back = read_trajectory_csv(path)
    assert back.steps == [dataclasses.replace(s, f1=None, f2=None) for s in traj.steps]
    assert back.zs == traj.zs and any(back.neg)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace(",red,", ",green,").replace(",blue,", ",green,")
    path.write_text("".join(lines))
    with pytest.raises(CorruptFileError, match="colour 'green'"):
        read_trajectory_csv(path)


def _csv_writer_rendering(traj, digest) -> bytes:
    """The trajectory file as ``csv.writer`` renders its rows."""
    report = analyze_records(traj.ks())
    flags = stable_so_far_flags(traj)
    buf = io.StringIO(newline="")
    buf.write(f"# manifest {digest}\n")
    writer = csv.writer(buf)
    writer.writerow(TRAJECTORY_COLUMNS)
    for i, step in enumerate(traj.steps, start=1):
        writer.writerow([
            i, step.k, step.y, step.sigma,
            encode(step.x) if step.x is not None else "",
            encode(traj.z(i)) if traj.z_materialized(i) else "",
            int(i in report.record_times), int(i in report.simple_record_times), int(flags[i - 1]),
        ])
    return buf.getvalue().encode()


def test_trajectory_csv_bytes_equal_a_csv_writer_rendering(mini_sym, tmp_path):
    traj = walk(mini_sym, 60, random.Random(7), kdist=KDistribution(truncation=50), x_level_cap=2)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, "d" * 64)
    data = path.read_bytes()
    assert data == _csv_writer_rendering(traj, "d" * 64)
    # the walk holds every kind of cell the writer formats
    assert data.startswith(b"# manifest " + b"d" * 64 + b"\n")
    text = data.decode()
    cells = [cell for row in csv.reader(text.splitlines()[2:]) for cell in row[4:6]]
    assert "" in cells
    assert any(f'"{cell}"' in text for cell in cells if "," in cell)
    assert any(cell and "," not in cell for cell in cells)  # unquoted, such as (1|;1|)
    back = read_trajectory_csv(path)
    assert back.zs == traj.zs


def test_reading_a_huge_cell_leaves_the_csv_field_limit_alone(tmp_path):
    x = ProductElement(LamplighterElement(range(30_000), 0), LamplighterElement((), 1))
    traj = Trajectory([1], bytearray(1), elements={0: (None, None, x)}, zs=[x])
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    default = 131_072
    assert len(encode(x)) > default
    previous = csv.field_size_limit(default)
    try:
        back = read_trajectory_csv(path)
        assert csv.field_size_limit() == default
        assert back.steps[0].x == x and back.zs == [x]
        # a read that fails part way also puts the limit back
        path.write_text(path.read_text().replace(",blue,", ",green,"))
        with pytest.raises(CorruptFileError):
            read_trajectory_csv(path)
        assert csv.field_size_limit() == default
    finally:
        csv.field_size_limit(previous)


def test_walk_determinism(mini_asym):
    kd = KDistribution(truncation=2)
    t1 = walk(mini_asym, 100, random.Random(24), kdist=kd)
    t2 = walk(mini_asym, 100, random.Random(24), kdist=kd)
    assert t1.steps == t2.steps


def test_level_cap_leaves_placeholders(mini_asym):
    kd = KDistribution(truncation=50)
    rng = random.Random(25)
    traj = walk(mini_asym, 300, rng, kdist=kd, x_level_cap=2)
    assert any(s.x is None for s in traj.steps)
    for s in traj.steps:
        assert (s.x is None) == (s.k > 2)


def test_max_level_tail_against_direct_k_oracle(mini_asym):
    # the walk's running maximum is the maximum of iid levels; compare tail
    # frequencies against a direct simulation of the level variable alone
    kd = KDistribution(truncation=1000)
    horizon, n_traj = 1000, 200
    rng = random.Random(27)
    walk_maxima = [
        max(s.k for s in walk(mini_asym, horizon, rng, kdist=kd, x_level_cap=0).steps)
        for _ in range(n_traj)
    ]
    rng2 = random.Random(28)
    oracle_maxima = [
        max(kd.sample(rng2) for _ in range(horizon)) for _ in range(n_traj)
    ]
    for threshold in (10, 100, 1000**3):
        p_walk = sum(m > threshold for m in walk_maxima) / n_traj
        p_oracle = sum(m > threshold for m in oracle_maxima) / n_traj
        sigma = math.sqrt(max(p_oracle * (1 - p_oracle), 1e-9) / n_traj)
        assert abs(p_walk - p_oracle) <= 4 * sigma + 1e-12
    # beyond the truncation level both probabilities vanish identically
    assert all(m <= 1000 for m in walk_maxima + oracle_maxima)


# -- exact pmf oracle ------------------------------------------------------------


def test_pmf_sums_to_one_mini_i3():
    c = Construction("asymmetric", "mini", Config(brute_verify=False))
    c.build_to(3)
    kd = KDistribution(truncation=3)
    support = sorted(exact_joint_pmf(c, kd).probs, key=encode)
    total = math.fsum(pmf_eval(c, g, kd) for g in support)
    assert abs(total - 1.0) < 1e-9


def test_pmf_red_branch_lower_bound(mini_asym):
    kd = KDistribution(truncation=2)
    lv = mini_asym.level(1)
    red = ProductElement(lv.factor(1).c, lv.factor(2).c)
    assert pmf_eval(mini_asym, red, kd) >= kd.pmf(1) * 0.5


def test_pmf_matches_empirical_tv(mini_asym_small):
    c = mini_asym_small
    kd = KDistribution(truncation=2)
    rng = random.Random(29)
    n = 10**5
    counts = {}
    for _ in range(n):
        traj = walk(c, 1, rng, kdist=kd)
        g = traj.steps[0].x
        counts[g] = counts.get(g, 0) + 1
    support = sorted(exact_joint_pmf(c, kd).probs, key=encode)
    assert set(counts) <= set(support)
    tv = math.fsum(
        abs(counts.get(g, 0) / n - pmf_eval(c, g, kd)) for g in support
    )
    assert tv < 4 / math.sqrt(n)


def test_symmetric_pmf_exactly_symmetric(mini_sym_small):
    # pmf_eval averages g and g^-1, so it is symmetric by construction; it
    # must also agree with the forward enumeration of the sampler's branches
    # on a support closed under inverse
    c = mini_sym_small
    kd = KDistribution(truncation=2)
    forward = exact_joint_pmf(c, kd)
    support = sorted(forward.probs, key=encode)
    assert support
    assert {inverse(g) for g in support} == set(support)
    for g in support:
        assert math.isclose(pmf_eval(c, g, kd), forward.prob(g), rel_tol=PMF_REL_TOL)


def _searched_parses(c, k, g):
    """The parse as a search over every box pair (f1, f2), in box order."""
    level = c.level(k)
    fs = list(level.box().iter_elements())
    return [(f1, f2) for f1 in fs for f2 in fs if level.blue_increment(f1, f2) == g]


def _parse_inputs(c, seed):
    """Every support element of the step law at truncation 2 and its inverse,
    the red increments of both levels and signs, seeded products of two
    support elements and seeded pairs of one's left and another's right
    component outside the support, and elements that are no lamplighter
    pair."""
    support = sorted(exact_joint_pmf(c, KDistribution(truncation=2)).probs, key=encode)
    inputs = support + [inverse(g) for g in support]
    inputs += [c.level(k).red_increment(s) for k in (1, 2) for s in (1, -1)]
    rng = random.Random(seed)
    products = {multiply(*rng.sample(support, 2)) for _ in range(60)}
    products |= {ProductElement(g.left, h.right) for g, h in (rng.sample(support, 2) for _ in range(60))}
    inputs += sorted(products - set(support), key=encode)
    control = AbelianControlElement(1, 0)
    return inputs + [LAMP_A, ProductElement(control, control)]


@pytest.mark.parametrize("fixture", ["mini_asym", "mini_sym", "mini_asym_small", "mini_sym_small"])
def test_blue_parses_equal_the_box_pair_search(fixture, request):
    # solving factor 1's component for f2 finds the pairs the search finds, in its order
    c = request.getfixturevalue(fixture)
    found = 0
    for k in (1, 2):
        for g in _parse_inputs(c, 31 + k):
            parses = _blue_parses(c, k, g)
            assert parses == _searched_parses(c, k, g), encode(g) if isinstance(g, ProductElement) else g
            found += len(parses)
    assert found


def test_a_planted_breach_is_parsed_as_the_search_parses_it():
    # with b1 the identity in both factors the increment is (f1 f2 b2, f2 f1 b2'),
    # which no longer pins the pair: half of the level-2 box pairs parse more than once
    c = Construction("symmetric", "mini", Config(brute_verify=False))
    c.build_to(2)
    level = c.levels[1]
    fs = list(level.box().iter_elements())

    def planted(js):
        factors = tuple(dataclasses.replace(fl, b1=LAMP_IDENTITY) if j in js else fl
                        for j, fl in enumerate(level.factors, start=1))
        c.levels[1] = dataclasses.replace(level, factors=factors)
        multiple = []
        for f1 in fs:
            for f2 in fs:
                g = c.levels[1].blue_increment(f1, f2)
                parses = _blue_parses(c, 2, g)
                assert parses == _searched_parses(c, 2, g)
                if len(parses) > 1:
                    multiple.append(g)
        return multiple

    assert planted({1}) == []  # factor 2's component still pins the pair
    multiple = planted({1, 2})
    assert len(multiple) == 32
    with pytest.raises(LampwalkError, match="blue parse not unique"):
        pmf_eval(c, multiple[0], KDistribution(truncation=2))


def test_a_level_2_parse_tries_at_most_one_pair_per_box_draw(mini_sym, monkeypatch):
    level = mini_sym.level(2)
    fs = list(level.box().iter_elements())
    g = level.blue_increment(fs[3], fs[5])
    calls = []
    blue_increment = Level.blue_increment

    def counted(self, f1, f2, sigma=1):
        calls.append((f1, f2))
        return blue_increment(self, f1, f2, sigma)

    monkeypatch.setattr(Level, "blue_increment", counted)
    assert _blue_parses(mini_sym, 2, g) == [(fs[3], fs[5])]
    assert 1 <= len(calls) <= len(fs)


def test_marginal_factorization_exact(mini_asym):
    # conditional on (k, blue), the first marginal's law equals the law of
    # f * b1 * s * b2 with f, s drawn independently and uniformly
    c = mini_asym
    for k in (1, 2):
        lv = c.level(k)
        box = lv.box()
        fl = lv.factor(1)
        lhs = {}
        for f1 in box.iter_elements():
            for f2 in box.iter_elements():
                g = lv.blue_increment(f1, f2).left
                lhs[g] = lhs.get(g, 0) + 1
        rhs = {}
        for f in box.iter_elements():
            for s in box.iter_elements():
                g = multiply(multiply(multiply(f, fl.b1), s), fl.b2)
                rhs[g] = rhs.get(g, 0) + 1
        assert lhs == rhs
