"""Switcher verification, search, and the analytic window construction."""

import random

from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    AbelianControlElement,
    LamplighterElement,
    abelian_control_group,
    encode,
    inverse,
    lamplighter_group,
    multiply,
    word_ball,
)
from lampwalk.setalg import BoundCertificate, certify, explicit, symmetrize
from lampwalk.switchers import (
    analytic_switcher,
    find_switcher_bfs,
    is_superswitcher,
    is_switcher,
)

LAMP = lamplighter_group()
CONTROL = abelian_control_group()
E = LAMP.identity()


def random_set(rng, radius=2, max_size=5):
    ball = sorted(word_ball(LAMP, radius), key=encode)
    return explicit(LAMP, rng.sample(ball, rng.randrange(1, max_size + 1)))


def test_singleton_set_any_nonidentity_passes():
    a = explicit(LAMP, [E])
    assert is_switcher(LAMP_S, a).passed
    assert is_switcher(LamplighterElement((4,), -2), a).passed
    assert not is_switcher(E, a).passed


def test_abelian_pair_always_fails_with_commuting_witness():
    x, y = AbelianControlElement(1, 0), AbelianControlElement(0, 1)
    a = explicit(CONTROL, [x, y])
    rep = is_switcher(AbelianControlElement(3, 5), a)
    assert not rep.passed
    assert rep.witness is not None


def test_planted_counterexample_in_product():
    # b inside A*A forces the disjointness clause to fail on a symmetric A
    a = explicit(LAMP, word_ball(LAMP, 1))
    b = multiply(LAMP_A, LAMP_S)
    rep = is_switcher(b, a)
    assert not rep.passed
    a1, a2 = rep.witness
    assert multiply(multiply(a1, b), a2) in a.elements


def test_analytic_formula_values():
    assert analytic_switcher(BoundCertificate(0, 0)) == LamplighterElement((1,), 2)
    assert analytic_switcher(BoundCertificate(1, 0)) == LamplighterElement((2,), 5)


def test_analytic_passes_on_examples():
    assert is_switcher(analytic_switcher(BoundCertificate(0, 0)), explicit(LAMP, [E])).passed
    ball1 = explicit(LAMP, word_ball(LAMP, 1))
    cand = analytic_switcher(certify(ball1))
    assert cand == LamplighterElement((2,), 5)
    assert is_switcher(cand, ball1).passed


def test_analytic_random_sets():
    rng = random.Random(11)
    for _ in range(20):
        a = random_set(rng)
        cert = certify(a)
        assert is_switcher(analytic_switcher(cert), a).passed


def test_superswitcher_on_singleton():
    b = analytic_switcher(BoundCertificate(0, 0))
    assert is_superswitcher(b, explicit(LAMP, [E])).passed


def test_superswitcher_cursor_windows_cert_1_0():
    b = analytic_switcher(BoundCertificate(1, 0))
    N, M = b.cursor, 1
    assert N == 5
    windows = [(-N - 2 * M, -N + 2 * M), (-M, M), (N - 2 * M, N + 2 * M)]
    assert windows == [(-7, -3), (-1, 1), (3, 7)]
    for (lo1, hi1), (lo2, hi2) in zip(windows, windows[1:]):
        assert hi1 < lo2
    assert b != inverse(b)


def test_superswitcher_random_sets_and_subsumption():
    rng = random.Random(12)
    for _ in range(20):
        a = symmetrize(random_set(rng))
        cert = certify(a)
        cand = analytic_switcher(cert)
        assert is_superswitcher(cand, a).passed
        # every superswitcher is in particular a switcher
        assert is_switcher(cand, a).passed


def test_self_inverse_identification_allowed():
    # b of order two: the sign ambiguity must not count as a collision
    b = LamplighterElement((0,), 0)  # a itself, an involution
    a = explicit(LAMP, [E])
    rep = is_superswitcher(b, a)
    # disjointness holds (a is not in {e}), collision only via b = b^-1
    assert rep.passed


def test_bfs_search_singleton():
    found = find_switcher_bfs(explicit(LAMP, [E]), 1)
    # first non-identity candidate in canonical encoding order
    assert encode(found) == "-1|"
    assert is_switcher(found, explicit(LAMP, [E])).passed


def test_bfs_search_abelian_not_found():
    a = explicit(CONTROL, [AbelianControlElement(0, 0), AbelianControlElement(1, 0)])
    assert find_switcher_bfs(a, 4) is None


def test_bfs_result_always_passes():
    rng = random.Random(13)
    for _ in range(5):
        a = random_set(rng, radius=1, max_size=3)
        found = find_switcher_bfs(a, 3)
        if found is not None:
            assert is_switcher(found, a).passed
