"""Subset algebra, skew boxes, certificates, and invariance arithmetic."""

import random
from fractions import Fraction

import pytest

from references import skewbox_loss, skewbox_rank

from lampwalk import setalg
from lampwalk.errors import MembershipError, SizeCapError
from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    LAMP_S_INV,
    LamplighterElement,
    encode,
    inverse,
    lamplighter_group,
    multiply,
    word_ball,
)
from lampwalk.setalg import (
    BoundCertificate,
    SkewBox,
    certify,
    certify_power,
    certify_product,
    certify_symmetrize,
    certify_union,
    exact_union_loss,
    explicit,
    folner_for,
    power_set,
    product_set,
    skewbox_overlap,
    symmetrize,
    verify_folner,
    worst_loss_numer,
)

LAMP = lamplighter_group()
E = LAMP.identity()


def eset(*elements):
    return explicit(LAMP, elements)


def random_small_set(rng, radius=2, max_size=5):
    ball = sorted(word_ball(LAMP, radius), key=encode)
    size = rng.randrange(1, max_size + 1)
    return explicit(LAMP, rng.sample(ball, size))


def test_sorted_elements_is_a_fresh_list_in_encoding_order():
    a = explicit(LAMP, word_ball(LAMP, 2))
    first = a.sorted_elements()
    assert first == sorted(a.elements, key=encode) == list(a)
    first.reverse()  # the sort is kept per set; a caller's list is its own
    assert a.sorted_elements() == sorted(a.elements, key=encode)
    assert a == explicit(LAMP, a.elements) and hash(a) == hash(explicit(LAMP, a.elements))


# -- products, powers, symmetrization ---------------------------------------------


def test_identity_product():
    b = eset(LAMP_A, LAMP_S)
    assert product_set(eset(E), b).elements == b.elements


def test_cancelling_product():
    assert product_set(eset(LAMP_S), eset(LAMP_S_INV)).elements == {E}


def test_two_generator_product_size():
    got = product_set(eset(LAMP_A, LAMP_S), eset(LAMP_A, LAMP_S))
    # {aa=e, as, sa, ss}: four distinct elements
    assert got.elements == {
        E,
        LamplighterElement((0,), 1),
        LamplighterElement((1,), 1),
        LamplighterElement((), 2),
    }


def test_power_examples():
    a = eset(E, LAMP_S)
    assert power_set(a, 1).elements == a.elements
    assert power_set(a, 3).elements == {
        E, LAMP_S, LamplighterElement((), 2), LamplighterElement((), 3)
    }


def test_power_monotone_with_identity():
    rng = random.Random(4)
    for _ in range(20):
        a = random_small_set(rng)
        a = explicit(LAMP, a.elements | {E})
        assert power_set(a, 2).elements <= power_set(a, 3).elements


def test_product_cap(monkeypatch):
    # 1,001^2 predicted products against a cap of 10^6, refused before any is formed
    a = explicit(LAMP, [LamplighterElement((), t) for t in range(1001)])
    monkeypatch.setattr(setalg, "multiply", None)
    with pytest.raises(SizeCapError) as err:
        product_set(a, a)
    assert (err.value.predicted, err.value.cap) == (1001**2, 10**6)


def test_symmetrize():
    assert symmetrize(eset(LAMP_S)).elements == {LAMP_S, LAMP_S_INV}
    sym = symmetrize(eset(LAMP_A, LAMP_S))
    assert symmetrize(sym).elements == sym.elements
    rng = random.Random(5)
    for _ in range(20):
        a = random_small_set(rng)
        assert len(symmetrize(a)) <= 2 * len(a)


# -- skew boxes ---------------------------------------------------------------------


def test_box_contents_n3():
    box = SkewBox(3)
    elems = list(box.iter_elements())
    assert len(elems) == len(set(elems)) == 24 == box.size()
    for g in elems:
        assert -(3 - 1) <= g.cursor <= 0
        assert all(g.cursor <= p <= g.cursor + 2 for p in g.lamps)


def test_box_enumeration_cap(monkeypatch):
    # 18 * 2^18 = 4,718,592 elements against a cap of 10^6
    monkeypatch.setattr(SkewBox, "unrank", None)
    elements = SkewBox(18).iter_elements()
    with pytest.raises(SizeCapError) as err:
        next(elements)
    assert (err.value.predicted, err.value.cap) == (18 * 2**18, 10**6)


@pytest.mark.parametrize("cap", [0, 1, 2, 8, 511, 512, 4096, 4097])
def test_box_fits_is_the_size_test(cap):
    for n in range(1, 40):
        assert SkewBox(n).fits(cap) == (SkewBox(n).size() <= cap)
    # a paper-scale window is refused without forming 2**n
    assert not SkewBox(2**200_000).fits(cap)


def test_rank_unrank_inverse_exhaustive():
    for n in (1, 2, 3):
        box = SkewBox(n)
        for i in range(box.size()):
            assert skewbox_rank(box, box.unrank(i)) == i
        for f in box.iter_elements():
            assert box.unrank(skewbox_rank(box, f)) == f


def test_unrank_zero():
    assert SkewBox(5).unrank(0) == LamplighterElement((), -4)


def test_rank_rejects_outsiders():
    with pytest.raises(MembershipError):
        skewbox_rank(SkewBox(2), LamplighterElement((), 1))
    with pytest.raises(MembershipError):
        SkewBox(2).unrank(8)


def test_uniform_sampling_tv():
    # empirical law over 1e5 draws vs uniform, total variation under 4/sqrt(N)
    box = SkewBox(3)
    rng = random.Random(6)
    n_draws = 100_000
    counts = {}
    for _ in range(n_draws):
        g = box.unrank(rng.randrange(box.size()))
        counts[g] = counts.get(g, 0) + 1
    uniform = 1.0 / box.size()
    tv = sum(abs(counts.get(box.unrank(i), 0) / n_draws - uniform) for i in range(box.size()))
    assert tv < 4 / n_draws ** 0.5


# -- certificates ----------------------------------------------------------------------


def test_certify_examples():
    assert certify(eset(E)) == BoundCertificate(0, 0)
    assert certify(SkewBox(3)) == BoundCertificate(2, 2)
    scan = certify(explicit(LAMP, SkewBox(3).iter_elements()))
    assert scan == BoundCertificate(2, 2)


def test_certificate_product_rule_against_explicit():
    rng = random.Random(7)
    for _ in range(20):
        a = random_small_set(rng)
        b = random_small_set(rng)
        ca, cb = certify(a), certify(b)
        cab = certify_product(ca, cb)
        real = certify(product_set(a, b))
        assert real.cursor_radius <= cab.cursor_radius
        assert real.lamp_radius <= cab.lamp_radius


def test_certify_power_examples():
    c = BoundCertificate(1, 0)
    assert certify_power(c, 1) == c
    assert certify_power(c, 3) == BoundCertificate(3, 2)
    explicit_cube = power_set(eset(E, LAMP_S, LAMP_S_INV), 3)
    assert all(certify_power(c, 3).covers(g) for g in explicit_cube.elements)


def test_certify_power_soundness_random():
    rng = random.Random(8)
    for _ in range(20):
        a = random_small_set(rng)
        cert = certify(a)
        for p in (2, 3, 4):
            cp = certify_power(cert, p)
            for g in power_set(a, p).elements:
                assert cp.covers(g)


def test_certify_inverse_union():
    c = certify(eset(LamplighterElement((2,), 3)))
    ci = certify_symmetrize(c)
    g = inverse(LamplighterElement((2,), 3))
    assert ci.covers(g)
    assert certify_union(BoundCertificate(1, 5), BoundCertificate(4, 2)) == BoundCertificate(4, 5)


# -- overlap arithmetic -------------------------------------------------------------------


def brute_overlap(g, box):
    elems = set(box.iter_elements())
    return sum(1 for f in elems if multiply(g, f) in elems)


def test_overlap_examples():
    box = SkewBox(3)
    assert skewbox_overlap(E, box) == box.size() == 24
    assert skewbox_overlap(LAMP_S, box) == 16
    assert skewbox_overlap(LAMP_A, box) == 24
    assert skewbox_loss(LAMP_S, box) == Fraction(1, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_overlap_matches_enumeration(n):
    box = SkewBox(n)
    for g in word_ball(LAMP, 3):
        assert skewbox_overlap(g, box) == brute_overlap(g, box)


def brute_union_loss(a, box):
    elems = set(box.iter_elements())
    outside = set()
    for g in a.elements:
        for f in elems:
            gf = multiply(g, f)
            if gf not in elems:
                outside.add(gf)
    return Fraction(len(outside), box.size())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_union_matches_enumeration(n):
    rng = random.Random(100 + n)
    box = SkewBox(n)
    for _ in range(15):
        a = random_small_set(rng)
        assert exact_union_loss(a, box) == brute_union_loss(a, box)
    # the subadditive union bound: the per-element losses summed
    assert sum(skewbox_loss(g, box) for g in a.elements) >= exact_union_loss(a, box)


# -- Folner search ---------------------------------------------------------------------------


def test_folner_identity_set():
    assert folner_for(BoundCertificate(0, 0), Fraction(1, 10)).n == 1
    check = verify_folner(eset(E), SkewBox(1), Fraction(1, 10))
    assert check.passed and check.ratio == 0


def test_folner_example_cert_1_0():
    box = folner_for(BoundCertificate(1, 0), Fraction(1, 2), card_bound=3)
    a = eset(E, LAMP_S, LAMP_S_INV)
    assert verify_folner(a, box, Fraction(1, 2)).passed


def test_verify_folner_ratio_examples():
    a = eset(LAMP_S)
    box = SkewBox(3)
    check = verify_folner(a, box, Fraction(1, 2))
    assert check.passed and check.ratio == Fraction(1, 3)
    assert not verify_folner(a, box, Fraction(1, 4)).passed


def test_folner_for_output_verifies():
    rng = random.Random(9)
    for _ in range(15):
        a = random_small_set(rng)
        delta = Fraction(1, rng.randrange(1, 5))
        box = folner_for(certify(a), delta, card_bound=len(a))
        assert verify_folner(a, box, delta).passed
        sharper = folner_for(certify(a), delta, elements=a)
        assert verify_folner(a, sharper, delta).passed
        assert sharper.n <= box.n


def test_folner_for_returns_least_n():
    # the box condition total*den < n*num is linear in n; folner_for must
    # return its least solution, for small totals and for one above 2^512
    rng = random.Random(31)
    cases = [(BoundCertificate(rng.randrange(4), rng.randrange(4)),
              Fraction(rng.randrange(1, 9), rng.randrange(1, 9)),
              rng.randrange(1, 10**6))
             for _ in range(200)]
    cases.append((BoundCertificate(3, 2), Fraction(1, 3), 2**520 + 12345))
    for cert, delta, card in cases:
        total = card * worst_loss_numer(cert)
        n = folner_for(cert, delta, card_bound=card).n
        assert total < n * delta
        assert n == 1 or not total < (n - 1) * delta
