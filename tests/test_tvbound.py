"""Sparse pmf algebra, exact marginals, and the certified TV bound."""

import math
import random

import pytest

from lampwalk.cli import build_parser
from lampwalk.construction import Config, Construction
from lampwalk.errors import GroupMismatchError, SizeCapError
from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    LamplighterElement,
    decode,
    encode,
    inverse,
    lamplighter_group,
    multiply,
)
from lampwalk.sampling import KDistribution, walk
from lampwalk.setalg import SkewBox, certify
from lampwalk.tvbound import (
    DEFAULT_TV_TRUNCATION,
    SparsePMF,
    _buildable_goal,
    _level_loss,
    certified_marginal_bound,
    convolve,
    exact_joint_pmf,
    exact_marginal,
    translate,
    tv,
)

LAMP = lamplighter_group()
E = LAMP.identity()


def delta_pmf(g) -> SparsePMF:
    return SparsePMF({g: 1.0})


def uniform_pmf(elements) -> SparsePMF:
    elements = list(elements)
    w = 1.0 / len(elements)
    return SparsePMF({g: w for g in elements})


def test_delta_convolution_identities():
    q = uniform_pmf([E, LAMP_S, LAMP_A])
    assert convolve(delta_pmf(E), q).probs == q.probs
    got = convolve(delta_pmf(LAMP_A), delta_pmf(LAMP_S))
    assert got.probs == {multiply(LAMP_A, LAMP_S): 1.0}


def test_hand_convolution_uniform_es():
    p = uniform_pmf([E, LAMP_S])
    got = convolve(p, p)
    want = {E: 0.25, LAMP_S: 0.5, LamplighterElement((), 2): 0.25}
    assert set(got.probs) == set(want)
    for g, w in want.items():
        assert abs(got.probs[g] - w) < 1e-15


def test_convolution_cap():
    # 896^2 = 802,816 support pairs against a cap of 200,000
    big = uniform_pmf(list(SkewBox(7).iter_elements()))
    with pytest.raises(SizeCapError) as err:
        convolve(big, big)
    assert (err.value.predicted, err.value.cap) == (896**2, 200_000)


def test_pmf_validation():
    with pytest.raises(ValueError):
        SparsePMF({E: 0.5})
    with pytest.raises(ValueError):
        SparsePMF({E: 1.5, LAMP_S: -0.5})


def test_tv_examples():
    p = uniform_pmf([E, LAMP_S])
    assert tv(p, p) == 0.0
    assert tv(delta_pmf(E), delta_pmf(LAMP_S)) == 2.0
    lam = uniform_pmf(list(SkewBox(3).iter_elements()))
    shifted = translate(LAMP_S, lam)
    assert abs(tv(shifted, lam) - 2 / 3) < 1e-12


def test_tv_metric_properties():
    rng = random.Random(41)
    pool = list(SkewBox(3).iter_elements())

    def random_pmf():
        support = rng.sample(pool, rng.randrange(2, 6))
        weights = [rng.random() + 0.05 for _ in support]
        total = sum(weights)
        return SparsePMF({g: w / total for g, w in zip(support, weights)}, tolerance=1e-9)

    for _ in range(100):
        p, q, r = random_pmf(), random_pmf(), random_pmf()
        assert abs(tv(p, q) - tv(q, p)) < 1e-12
        assert tv(p, r) <= tv(p, q) + tv(q, r) + 1e-12
        assert -1e-15 <= tv(p, q) <= 2 + 1e-15


def test_exact_marginal_normalized_and_symmetric(mini_asym_small, mini_sym_small):
    kd = KDistribution(truncation=2)
    m1 = exact_marginal(mini_asym_small, 1, 1, kd)
    assert abs(math.fsum(m1.probs.values()) - 1.0) < 1e-9
    msym = exact_marginal(mini_sym_small, 1, 1, kd)
    for g, w in msym.probs.items():
        assert abs(msym.probs[inverse(g)] - w) < 1e-15


def test_marginal_matches_sampler(mini_asym_small):
    kd = KDistribution(truncation=2)
    marg = exact_marginal(mini_asym_small, 1, 1, kd)
    rng = random.Random(42)
    n = 10**5
    counts = {}
    for _ in range(n):
        traj = walk(mini_asym_small, 1, rng, kdist=kd)
        g = traj.steps[0].x.left
        counts[g] = counts.get(g, 0) + 1
    total = math.fsum(
        abs(counts.get(g, 0) / n - marg.probs.get(g, 0.0))
        for g in set(counts) | set(marg.probs)
    )
    assert total < 4 / math.sqrt(n)


def test_joint_pmf_matches_pmf_eval(mini_asym_small):
    from lampwalk.sampling import pmf_eval

    kd = KDistribution(truncation=2)
    joint = exact_joint_pmf(mini_asym_small, kd)
    for g in sorted(joint.probs, key=encode):
        assert abs(joint.probs[g] - pmf_eval(mini_asym_small, g, kd)) < 1e-12


def test_joint_pmf_past_the_red_underflow():
    # from level 1061 on the red mass pk * 2**-k underflows to 0.0; the law
    # leaves those branches out and stays a pmf of positive masses
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(1100)
    joint = exact_joint_pmf(c, KDistribution(truncation=1100))
    assert all(p > 0.0 for p in joint.probs.values())
    assert abs(math.fsum(joint.probs.values()) - 1.0) < 1e-9
    assert joint.prob(c.level(1100).red_increment()) == 0.0


def test_bound_identity_has_zero_loss(paper_asym):
    kd = KDistribution(truncation=30)
    report = certified_marginal_bound(paper_asym, E, 50, kdist=kd)
    assert report.loss_term == 0.0
    assert report.bound == report.record_failure_term


def test_bound_monotone_in_horizon(paper_asym):
    kd = KDistribution(truncation=30)
    h = LAMP_A
    grid = [5, 10, 20, 50, 100, 400]
    bounds = [certified_marginal_bound(paper_asym, h, n, kdist=kd).bound for n in grid]
    for earlier, later in zip(bounds, bounds[1:]):
        assert later <= earlier + 1e-12


def test_bound_decreases_substantially(paper_asym):
    kd = KDistribution(truncation=30)
    for h in (LAMP_A, LAMP_S, decode("-1|")):
        b10 = certified_marginal_bound(paper_asym, h, 10, kdist=kd).bound
        b1000 = certified_marginal_bound(paper_asym, h, 1000, kdist=kd).bound
        assert b1000 < b10 / 3


def test_bound_sound_against_oracle(mini_asym_small):
    kd = KDistribution(truncation=2)
    for text in ("0|0", "1|", "-1|", "0|"):
        h = decode(text)
        for n in (1, 2, 3, 4):
            report = certified_marginal_bound(mini_asym_small, h, n, j=1, kdist=kd)
            marg = exact_marginal(mini_asym_small, 1, n, kd)
            exact = tv(translate(h, marg), marg)
            assert report.bound >= exact - 1e-9


def test_bound_sound_against_oracle_symmetric(mini_sym_small):
    kd = KDistribution(truncation=2)
    for text in ("0|0", "1|"):
        h = decode(text)
        for n in (1, 2, 3):
            report = certified_marginal_bound(mini_sym_small, h, n, j=1, kdist=kd)
            marg = exact_marginal(mini_sym_small, 1, n, kd)
            exact = tv(translate(h, marg), marg)
            assert report.bound >= exact - 1e-9


@pytest.mark.parametrize("fixture", ["mini_asym", "paper_asym"])
def test_bound_without_kdist_truncates_as_the_tv_command(fixture, request):
    # without a kdist the level law must fit the record DP's cap of 4096 levels
    c = request.getfixturevalue(fixture)
    assert DEFAULT_TV_TRUNCATION == 30
    assert build_parser().parse_args(["tv", "c.lwc", "--out", "o.csv"]).truncation_level == 30
    for h in (LAMP_A, decode("-1|")):
        report = certified_marginal_bound(c, h, 100)
        assert report == certified_marginal_bound(c, h, 100, kdist=KDistribution(30))
        assert report.truncation == 30


@pytest.mark.parametrize("text", ["(0|;0|)", "1,2"])
def test_bound_refuses_an_element_that_is_not_a_lamplighter_element(mini_asym_small, monkeypatch,
                                                                    text):
    # refused before any membership scan, which would search the enumeration
    def scanned(self, j, g):
        raise AssertionError("membership scanned")

    monkeypatch.setattr(Construction, "membership_level", scanned)
    with pytest.raises(GroupMismatchError, match="lamplighter element"):
        certified_marginal_bound(mini_asym_small, decode(text), 10, kdist=KDistribution(10))


def test_bound_second_factor(paper_asym):
    kd = KDistribution(truncation=30)
    report = certified_marginal_bound(paper_asym, LAMP_A, 100, j=2, kdist=kd)
    assert 0.0 < report.bound < 2.0
    assert report.membership_level == 6  # (e,a) is the fifth enumerated pair


def _quadratic_bound(c, h, n, j, kdist):
    """The O(n I^2) record DP, looping over every (running max v, draw k > v).

    Kept as the reference for the running-sum DP of certified_marginal_bound;
    returns (bound, record_failure_term, loss_term, conditional_loss).
    """
    m_h = c.membership_level(j, h)
    h_cert = certify([h])
    trunc = kdist.truncation
    pmf = kdist.pmf_vector()
    prefix = [0.0]
    for p in pmf:
        prefix.append(prefix[-1] + p)
    sig = 0.5 if c.mode == "symmetric" else 1.0
    state = [0.0] * (trunc + 1)
    state[0] = 1.0
    loss_total = 0.0
    good_total = 0.0
    loss_cache = {}
    for m in range(1, n + 1):
        nxt = [0.0] * (trunc + 1)
        for v in range(trunc + 1):
            pv = state[v]
            if pv == 0.0:
                continue
            nxt[v] += pv * prefix[v]
            for k in range(max(v + 1, 1), trunc + 1):
                pk = pmf[k - 1]
                if pk == 0.0:
                    continue
                if k >= m_h and m <= k + 1:
                    blue = 1.0 - 2.0 ** -k
                    good = pv * pk * blue * sig
                    good_total += good
                    if (m, k) not in loss_cache:
                        loss_cache[m, k] = _level_loss(c, h, h_cert, j, m, k)
                    loss_total += good * loss_cache[m, k]
                    nxt[k] += pv * pk * (1.0 - blue * sig)
                else:
                    nxt[k] += pv * pk
        state = nxt
    failure = 2.0 * math.fsum(state)
    cond = loss_total / good_total if good_total > 0 else 0.0
    return min(2.0, failure + loss_total), failure, loss_total, cond


@pytest.mark.parametrize("mode,schedule,cap", [
    ("asymmetric", "paper", None),
    ("asymmetric", "mini", 1),
    ("symmetric", "mini", 1),
    ("asymmetric", "mini", 2),
])
def test_linear_dp_matches_quadratic_reference(request, mode, schedule, cap):
    if schedule == "paper":
        c = request.getfixturevalue("paper_asym")  # built to the bound's goal, 3
    else:
        # private: built below to the bound's goal, min(I, 64) levels on mini
        c = Construction(mode, schedule, Config(brute_verify=False, mini_box_cap=cap))
    gens = [decode(t) for t in ("0|0", "1|", "-1|", "0|0,1", "2|")]
    for trunc in (2, 30, 100):
        kd = KDistribution(truncation=trunc)
        c.build_to(_buildable_goal(c, trunc))
        for h in gens:
            for n in (1, 2, 4, 10, 100, 1000):
                r = certified_marginal_bound(c, h, n, kdist=kd)
                got = (r.bound, r.record_failure_term, r.loss_term, r.conditional_loss)
                want = _quadratic_bound(c, h, n, 1, kd)
                for g, w in zip(got, want):
                    assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (trunc, h, n, got, want)


def test_bound_does_not_depend_on_call_order():
    # the bound only reads the construction, which the caller builds to the
    # bound's goal; membership_level consults the built cores
    def fresh():
        c = Construction("symmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
        c.build_to(_buildable_goal(c, 100))
        return c

    kd = KDistribution(truncation=100)
    h = decode("2|")
    c = fresh()
    first = certified_marginal_bound(c, h, 100, kdist=kd)
    assert certified_marginal_bound(c, h, 100, kdist=kd) == first
    other = fresh()
    certified_marginal_bound(other, decode("1|"), 100, kdist=kd)
    assert certified_marginal_bound(other, h, 100, kdist=kd) == first
    assert (first.membership_level, first.bound) == (14, 2.0)
