"""Acceptance suite: one test per criterion, each printing its verdict.

Every tolerance is pinned here.  The criteria are property-based at desk
scale: exhaustive scans where sets materialize, certified bounds where they
do not, and seeded Monte Carlo with explicit significance margins.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cli_env import cli_env
from references import window_rank

from lampwalk.analysis import (
    MULTIPLE,
    WindowOracle,
    decompose_oracle,
    detect_stabilization,
    dominant_record_times,
    freeness_test,
    p_map,
    stable_so_far_flags,
)
from lampwalk.construction import Construction
from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    LAMP_S_INV,
    ProductElement,
    abelian_control_group,
    decode,
    encode,
    inverse,
    lamplighter_group,
    multiply,
    word_ball,
)
from lampwalk.sampling import (
    KDistribution,
    pmf_eval,
    sample_x,
    walk,
)
from lampwalk.setalg import certify, explicit, symmetrize
from lampwalk.switchers import (
    analytic_switcher,
    find_switcher_bfs,
    is_superswitcher,
    is_switcher,
)
from lampwalk.tvbound import (
    certified_marginal_bound,
    exact_joint_pmf,
    exact_marginal,
    translate,
    tv,
)
from lampwalk.verify import PMF_REL_TOL

LAMP = lamplighter_group()
CONTROL = abelian_control_group()
E = LAMP.identity()
PE = ProductElement(E, E)


def verdict(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- shared expensive fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def kdist_full():
    return KDistribution(truncation=10**6)


@pytest.fixture(scope="module")
def trajectory_summaries(paper_asym, kdist_full):
    """1000 coupled-metadata walks of the paper measure, horizon 10^4.

    Each summary carries the stable-so-far flags at the three checkpoint
    horizons plus the post-stabilization transition audit of the level-drop
    map (the dominant record either persists or jumps to the fresh step).
    """
    horizons = (100, 1000, 10_000)
    out = []
    for idx in range(1000):
        rng = random.Random(900_000 + idx)
        traj = walk(paper_asym, horizons[-1], rng, kdist=kdist_full, x_level_cap=0)
        flags = stable_so_far_flags(traj)
        dom = dominant_record_times(traj)
        i0 = detect_stabilization(traj)
        checked = failures = 0
        if i0 is not None:
            for i in range(i0 + 1, traj.horizon):
                checked += 1
                if not (dom[i] == dom[i - 1] or dom[i] == i + 1):
                    failures += 1
        out.append(
            {
                "stable_at": {h: flags[h - 1] for h in horizons},
                "stabilization_time": i0,
                "transitions_checked": checked,
                "transitions_failed": failures,
            }
        )
    return out


# -- criterion 1: switcher soundness ------------------------------------------------


def test_criterion_1_switcher_soundness():
    start = time.time()
    ball2 = sorted(word_ball(LAMP, 2), key=encode)
    rng = random.Random(101)
    corpus = [explicit(LAMP, [E]), explicit(LAMP, ball2),
              explicit(LAMP, word_ball(LAMP, 1))]
    while len(corpus) < 60:
        size = rng.randrange(1, 8)
        corpus.append(explicit(LAMP, rng.sample(ball2, size)))
    for a in corpus:
        cert = certify(a)
        assert is_switcher(analytic_switcher(cert), a).passed, encode(analytic_switcher(cert))
        assert is_superswitcher(analytic_switcher(cert), a).passed
        sym = symmetrize(a)
        assert is_superswitcher(analytic_switcher(certify(sym)), sym).passed

    control_ball = sorted(word_ball(CONTROL, 2), key=encode)
    assert len(control_ball) == 13
    candidates = 0
    import itertools

    subsets = 0
    for size in range(2, len(control_ball) + 1):
        for combo in itertools.combinations(control_ball, size):
            subsets += 1
            a = explicit(CONTROL, combo)
            found = find_switcher_bfs(a, 6)
            assert found is None, f"control group produced a switcher {found}"
    elapsed = time.time() - start
    verdict(
        1,
        elapsed < 300,
        f"{len(corpus)} lamplighter sets pass brute verification of analytic "
        f"candidates; all {subsets} control-group subsets of size >= 2 admit "
        f"no switcher in ball(6); {elapsed:.1f}s (< 300s)",
    )


# -- criterion 2: unique decomposition and disjointness ---------------------------------


def test_criterion_2_unique_decomposition(mini_asym, mini_sym):
    start = time.time()
    details = []
    for c, label in ((mini_asym, "asymmetric"), (mini_sym, "symmetric")):
        oracle = WindowOracle(c)
        for level in (1, 2):
            index = oracle.index(level)
            ok, witnesses = index.certify_unique()
            assert ok, f"{label} W{level}: multiple decompositions {witnesses[:1]}"
            sizes = [len(f.values) for f in index.factors]
            details.append(f"{label} W{level} ({min(sizes)} forms/factor)")
        w1, w2 = oracle.index(1), oracle.index(2)
        overlap = [g for g in w1.iter_elements() if g in w2]
        assert not overlap, f"{label}: W1 meets W2 at {encode(overlap[0])}"
    elapsed = time.time() - start
    verdict(
        2,
        elapsed < 600,
        "unique decomposition and pairwise disjointness verified exhaustively: "
        + ", ".join(details)
        + f"; {elapsed:.1f}s (< 600s)",
    )


# -- criterion 3: level-drop map laws ---------------------------------------------------


def test_criterion_3_p_map_laws(mini_asym, mini_sym, trajectory_summaries):
    rank_checked = 0
    for c in (mini_asym, mini_sym):
        oracle = WindowOracle(c)
        for level in (1, 2):
            index = oracle.index(level)
            q1_pairs = {
                ProductElement(qa1, qa2)
                for qa1 in index.factors[0].qa_list
                for qa2 in index.factors[1].qa_list
            }
            for q1 in q1_pairs:
                assert window_rank(oracle, q1, 2) < level
                rank_checked += 1

    # equivariance: h w for h in A x A, w in W' has the translated left part;
    # uniqueness over the enclosing domain (criterion 2) forces p(hw) = h p(w),
    # and a full elementwise spot pass at level 1 plus samples at level 2
    # confirm the multiplication itself
    equi_checked = 0
    rng = random.Random(103)
    for c in (mini_asym, mini_sym):
        oracle = WindowOracle(c)
        for level in (1, 2):
            wprime = oracle.index(level, prime=True)
            elems = list(itertools.islice(wprime.iter_elements(), None if level == 1 else 60))
            a1 = c.a_set(1, level).sorted_elements()
            a2 = c.a_set(2, level).sorted_elements()
            if level == 1:
                hs = [ProductElement(x, y) for x in a1 for y in a2]
            else:
                hs = [ProductElement(rng.choice(a1), rng.choice(a2)) for _ in range(8)]
            for w in elems:
                dw = decompose_oracle(oracle, w, level)
                assert dw is not None and dw is not MULTIPLE
                for h in hs:
                    dhw = decompose_oracle(oracle, multiply(h, w), level)
                    assert dhw is not None and dhw is not MULTIPLE
                    assert p_map(dhw) == multiply(h, p_map(dw))
                    equi_checked += 1

    checked = sum(s["transitions_checked"] for s in trajectory_summaries)
    failed = sum(s["transitions_failed"] for s in trajectory_summaries)
    verdict(
        3,
        failed == 0 and checked > 0,
        f"rank decrease on {rank_checked} left parts, equivariance on "
        f"{equi_checked} translated forms, and {checked} post-stabilization "
        f"transitions across 1000 paper-schedule walks with {failed} violations",
    )


# -- criterion 4: stabilization ------------------------------------------------------------


def test_criterion_4_stabilization(trajectory_summaries):
    start = time.time()
    fractions = {}
    for h in (100, 1000, 10_000):
        fractions[h] = sum(s["stable_at"][h] for s in trajectory_summaries) / len(
            trajectory_summaries
        )
    monotone = fractions[100] <= fractions[1000] <= fractions[10_000]
    elapsed = time.time() - start
    verdict(
        4,
        monotone and fractions[10_000] > 0.9,
        f"stabilized fractions {fractions[100]:.3f} <= {fractions[1000]:.3f} "
        f"<= {fractions[10_000]:.3f} over 1000 walks (threshold 0.9 at 10^4), "
        f"truncation 10^6",
    )


# -- criterion 5: freeness --------------------------------------------------------------------


def test_criterion_5_freeness(kdist_full):
    # walks with x_level_cap=2000 read every level up to 2000
    c = Construction("asymmetric", "mini")
    c.build_to(2000)
    generators = [
        decode("(0|0;0|)"),     # (a, e)
        decode("(0|;0|0)"),     # (e, a)
        decode("(1|;1|)"),      # (s, s)
        decode("(-1|;0|)"),     # (s^-1, e)
    ]
    stabilized = []
    idx = 0
    while len(stabilized) < 120 and idx < 400:
        rng = random.Random(500_000 + idx)
        idx += 1
        traj = walk(c, 400, rng, kdist=kdist_full, x_level_cap=2000)
        if detect_stabilization(traj) is not None:
            stabilized.append(traj)
    assert len(stabilized) >= 100, f"only {len(stabilized)} stabilized walks"

    tallies = {encode(h): {"distinct": 0, "identical": 0, "censored": 0} for h in generators}
    identical_ok = 0
    for traj in stabilized:
        for h in generators:
            tallies[encode(h)][freeness_test(traj, h, c)] += 1
        if freeness_test(traj, PE, c) in ("identical", "censored"):
            identical_ok += 1
    problems = [
        (name, t) for name, t in tallies.items() if t["identical"] or not t["distinct"]
    ]
    verdict(
        5,
        not problems and identical_ok == len(stabilized),
        f"{len(stabilized)} stabilized walks; walks with a counted tail entry per generator "
        + "; ".join(f"{name}: {t['distinct'] + t['identical']} ({t['distinct']} distinct / "
                    f"{t['censored']} censored)" for name, t in tallies.items())
        + "; h*z = z only for h = e, so each counted entry differs from its translate by "
        "cancellation; identity always identical on comparable tails",
    )


# -- criterion 6: Liouville mechanism ------------------------------------------------------------


def test_criterion_6_liouville(paper_asym, mini_asym_small, mini_sym_small):
    start = time.time()
    kd30 = KDistribution(truncation=30)
    ratios = []
    for h in (LAMP_A, LAMP_S, LAMP_S_INV):
        b10 = certified_marginal_bound(paper_asym, h, 10, j=1, kdist=kd30).bound
        b1000 = certified_marginal_bound(paper_asym, h, 1000, j=1, kdist=kd30).bound
        ratios.append((encode(h), b10, b1000, b10 / b1000))
    decrease_ok = all(r[3] >= 3 for r in ratios)

    kd2 = KDistribution(truncation=2)
    sound_checks = 0
    for c in (mini_asym_small, mini_sym_small):
        for h in (LAMP_A, LAMP_S, LAMP_S_INV, E):
            for n in (1, 2, 3, 4):
                report = certified_marginal_bound(c, h, n, j=1, kdist=kd2)
                marginal = exact_marginal(c, 1, n, kd2)
                exact = tv(translate(h, marginal), marginal)
                assert report.bound >= exact - 1e-9, (
                    f"{c.mode} h={encode(h)} n={n}: bound {report.bound} "
                    f"below exact TV {exact}"
                )
                sound_checks += 1
    elapsed = time.time() - start
    verdict(
        6,
        decrease_ok and elapsed < 900,
        "bound decrease n=10 -> n=1000 (I=30): "
        + ", ".join(f"{name} {b10:.4g}->{b1000:.4g} (x{r:.1f})" for name, b10, b1000, r in ratios)
        + f"; sound vs exact TV in {sound_checks} oracle comparisons at 1e-9; "
        f"{elapsed:.1f}s (< 900s)",
    )


# -- criterion 7: symmetry -----------------------------------------------------------------------


def test_criterion_7_symmetry(mini_sym_small):
    # the parsed nu(g) averages g and g^-1, so it is checked against the
    # forward enumeration of the step law, on a support closed under inverse
    kd2 = KDistribution(truncation=2)
    forward = exact_joint_pmf(mini_sym_small, kd2)
    support = sorted(forward.probs, key=encode)
    assert {inverse(g) for g in support} == set(support)
    for g in support:
        assert math.isclose(
            pmf_eval(mini_sym_small, g, kd2), forward.prob(g), rel_tol=PMF_REL_TOL
        ), f"parsed nu({encode(g)}) differs from the forward law"

    kd1 = KDistribution(truncation=1)
    rng = random.Random(107)
    n_draws = 10**6
    counts = {}
    for _ in range(n_draws):
        step = sample_x(mini_sym_small, rng, kd1)
        counts[step.x] = counts.get(step.x, 0) + 1
    flipped = {inverse(g): c for g, c in counts.items()}
    tv_self = sum(
        abs(counts.get(g, 0) - flipped.get(g, 0)) for g in set(counts) | set(flipped)
    ) / n_draws
    tol = 4 / math.sqrt(n_draws)
    verdict(
        7,
        tv_self < tol,
        f"parsed pmf matches the forward law (rel tol {PMF_REL_TOL:g}) on all "
        f"{len(support)} support elements, a set closed under inverse; empirical "
        f"sampler self-symmetry TV {tv_self:.5f} < {tol:.5f} at N=10^6",
    )


# -- criterion 8: marginal factorization ------------------------------------------------------------


def test_criterion_8_marginal_factorization(mini_asym, mini_sym):
    checked = 0
    for c in (mini_asym, mini_sym):
        for j in (1, 2):
            for k in (1, 2):
                level = c.level(k)
                box = level.box()
                fl = level.factor(j)
                coupled = {}
                for f1 in box.iter_elements():
                    for f2 in box.iter_elements():
                        x = level.blue_increment(f1, f2)
                        g = x.left if j == 1 else x.right
                        coupled[g] = coupled.get(g, 0) + 1
                factored = {}
                for f in box.iter_elements():
                    for s in box.iter_elements():
                        g = multiply(multiply(multiply(f, fl.b1), s), fl.b2)
                        factored[g] = factored.get(g, 0) + 1
                assert coupled == factored, f"{c.mode} j={j} k={k}: laws differ"
                checked += 1
    verdict(
        8,
        checked == 8,
        "conditional blue marginals equal the independent uniform two-factor "
        f"law with zero tolerance in {checked} (mode, factor, level) cases",
    )


# -- criterion 9: determinism -----------------------------------------------------------------------


def _cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "lampwalk.cli", *args],
        cwd=cwd, capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0, f"{args}: {proc.stdout}\n{proc.stderr}"
    return proc


def _full_pipeline(root: Path):
    root.mkdir(parents=True)
    _cli(["build", "--schedule", "mini", "--mode", "asymmetric", "--max-level", "2",
          "--mini-box-cap", "1", "--out", "mini.lwc"], root)
    _cli(["sample", "mini.lwc", "--seed", "77", "--n-traj", "4", "--horizon", "80",
          "--truncation-level", "600", "--x-level-cap", "600", "--out-dir", "runs"], root)
    trajs = sorted(str(p.relative_to(root)) for p in (root / "runs").glob("*.csv"))
    _cli(["analyze", *trajs, "--construction", "mini.lwc", "--seed", "77",
          "--freeness", "(0|0;0|)", "(0|;0|)", "--out", "analysis.json"], root)
    _cli(["tv", "mini.lwc", "--generators", "0|0", "1|", "--n-grid", "2,4",
          "--truncation-level", "2", "--oracle", "--seed", "77", "--out", "tv.csv"], root)
    _cli(["verify", "mini.lwc"], root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_determinism(tmp_path):
    a = _full_pipeline(tmp_path / "a")
    b = _full_pipeline(tmp_path / "b")
    assert set(a) == set(b)
    different = [name for name in a if a[name] != b[name]]
    verdict(
        9,
        not different,
        f"two seeded pipeline runs produced byte-identical artifacts "
        f"({len(a)} files: construction, trajectories, analysis, TV curve, manifests)",
    )
