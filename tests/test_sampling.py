"""Coupled sampling: level law, color coupling, increments, exact pmf oracle."""

import csv
import dataclasses
import io
import math
import random

import pytest

from lampwalk.analysis import analyze_records, stable_so_far_flags
from lampwalk.construction import Config, Construction
from lampwalk.errors import CorruptFileError
from lampwalk.groups import ProductElement, encode, inverse, multiply
from lampwalk.sampling import (
    TRAJECTORY_COLUMNS,
    CoupledStep,
    KDistribution,
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
        assert kd._cum == cum


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
    for _ in range(horizon):
        k = kdist.sample(rng)
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
        ("paper_asym", 10**4, 0),
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
