"""Only ``build_to`` grows a construction; every public reader leaves it as built."""

import dataclasses
import random

import pytest

from references import recompose, window_rank

from lampwalk import analysis, sampling, tvbound
from lampwalk.construction import Config, Construction
from lampwalk.errors import LampwalkError
from lampwalk.groups import ProductElement, decode, encode, lamplighter_group

DEPTH = 40


@pytest.fixture(scope="module")
def shared():
    # deep enough that walks stabilize at n > 1, so the tracked decompositions
    # check window certificates; box cap 1 keeps the oracles small
    c = Construction("asymmetric", "mini", Config(brute_verify=False, mini_box_cap=1))
    c.build_to(DEPTH)
    return c


def test_public_readers_never_grow_the_construction(shared):
    c = shared
    digest = c.digest()
    kd = sampling.KDistribution(truncation=DEPTH)
    small = sampling.KDistribution(truncation=2)
    deep = sampling.KDistribution(truncation=DEPTH + 3)
    h = decode("1|")
    hh = ProductElement(h, lamplighter_group().identity())
    rng = random.Random(60)

    # within the built levels
    trajs = [sampling.walk(c, 6, rng, kdist=kd) for _ in range(30)]
    trajs.append(sampling.walk(c, 6, rng, kdist=deep, x_level_cap=0))
    assert any(analysis.detect_stabilization(t) not in (None, 0) for t in trajs)
    sampling.sample_x(c, rng, kd)
    support = sorted(tvbound.exact_joint_pmf(c, small).probs, key=encode)
    sampling.pmf_eval(c, support[-1], small)
    for traj in trajs:
        analysis.trajectory_report(traj, c, [hh])
        for n in range(1, traj.horizon + 1):
            analysis.decompose_tracked(traj, n, c)
    oracle = analysis.WindowOracle(c)
    for i in (1, 2):
        g = next(oracle.index(i, prime=True).iter_elements())
        d = analysis.decompose_oracle(oracle, g, i)
        assert recompose(c, d) == g
        window_rank(oracle, g, 2)
    tvbound.exact_joint_pmf(c, small)
    tvbound.exact_marginal(c, 1, 2, small)
    # the bound covers levels past max_built with the schedule's tail loss
    tvbound.certified_marginal_bound(c, h, 10, kdist=deep)
    tvbound.certified_marginal_bound(c, decode("2|"), 10, j=2, kdist=deep)

    # past the built levels every reader raises instead of building
    past = DEPTH + 1
    for call in (
        lambda: sampling.walk(c, 200, random.Random(61), kdist=deep),
        lambda: sampling.pmf_eval(c, support[-1], deep),
        lambda: tvbound.exact_joint_pmf(c, deep),
        lambda: tvbound.exact_marginal(c, 1, 1, deep),
        lambda: analysis.WindowIndex(c, past),
        lambda: analysis.decompose_oracle(c, support[-1], past),
        lambda: recompose(c, dataclasses.replace(d, level=past)),
    ):
        with pytest.raises(LampwalkError, match="is not built"):
            call()

    assert (c.max_built, c.digest()) == (DEPTH, digest)
