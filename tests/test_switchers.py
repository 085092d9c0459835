"""Switcher verification, search, and the analytic window construction."""

import random

import pytest

from lampwalk import switchers
from lampwalk.groups import (
    LAMP_A,
    LAMP_S,
    AbelianControlElement,
    LamplighterElement,
    ProductElement,
    _product_row,
    abelian_control_group,
    decode,
    encode,
    inverse,
    lamplighter_group,
    multiply,
    product_group,
    word_ball,
)
from lampwalk.setalg import BoundCertificate, certify, explicit, symmetrize
from lampwalk.switchers import (
    SwitcherReport,
    analytic_switcher,
    find_switcher_bfs,
    is_superswitcher,
    is_switcher,
)

LAMP = lamplighter_group()
CONTROL = abelian_control_group()
PRODUCT = product_group(LAMP, LAMP)
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


def test_bfs_search_is_the_first_passing_candidate_and_builds_no_report(monkeypatch):
    rng = random.Random(17)
    sets = [explicit(CONTROL, [AbelianControlElement(0, 0), AbelianControlElement(1, 0)])]
    sets += [random_set(rng, radius=2, max_size=6) for _ in range(8)]
    want = [next((b for b in switchers._ball_candidates(a.group, 2) if is_switcher(b, a).passed), None)
            for a in sets]
    assert None in want and any(want)

    def report(*args):
        raise AssertionError("a rejected candidate built a report")

    monkeypatch.setattr(switchers, "_failure", report)
    assert [find_switcher_bfs(a, 2) for a in sets] == want


# -- the one scan against the two pair loops it replaced ---------------------------


def _reference_switcher(b, a):
    against = f"explicit set of {len(a)} elements"
    elems = a.sorted_elements()
    seen = {}
    for a1 in elems:
        a1b = multiply(a1, b)
        for a2 in elems:
            prod = multiply(a1b, a2)
            if prod in a.elements:
                return SwitcherReport(
                    b, "switcher", False, "brute", against,
                    witness=(a1, a2),
                    reason=f"{encode(a1)}*b*{encode(a2)} lands back in A",
                )
            if prod in seen:
                return SwitcherReport(
                    b, "switcher", False, "brute", against,
                    witness=(seen[prod], (a1, a2)),
                    reason="two pairs give the same product a1*b*a2",
                )
            seen[prod] = (a1, a2)
    return SwitcherReport(b, "switcher", True, "brute", against)


def _reference_superswitcher(b, a):
    against = f"explicit set of {len(a)} elements"
    binv = inverse(b)
    elems = a.sorted_elements()
    seen = {}
    for sign, bb in ((1, b), (-1, binv)):
        for a1 in elems:
            a1b = multiply(a1, bb)
            for a2 in elems:
                prod = multiply(a1b, a2)
                if prod in a.elements:
                    return SwitcherReport(
                        b, "superswitcher", False, "brute", against,
                        witness=(a1, sign, a2),
                        reason=f"A meets A b^{sign} A",
                    )
                if prod in seen:
                    p1, psign, p2 = seen[prod]
                    if not (p1 == a1 and p2 == a2 and (psign == sign or b == binv)):
                        return SwitcherReport(
                            b, "superswitcher", False, "brute", against,
                            witness=((p1, psign, p2), (a1, sign, a2)),
                            reason="two triples give the same product a1*b^s*a2",
                        )
                else:
                    seen[prod] = (a1, sign, a2)
    return SwitcherReport(b, "superswitcher", True, "brute", against)


def _scan_cases():
    """(set, candidates) per group kind: random and symmetrized sets, and as
    candidates the identity, a self-inverse element, ball elements and, for
    lamplighter sets, the analytic switcher."""
    rng = random.Random(14)
    cases = []
    for group, radius, involution in (
        (LAMP, 2, LAMP_A),
        (PRODUCT, 2, ProductElement(LAMP_A, E)),
        (CONTROL, 2, None),
    ):
        ball = sorted(word_ball(group, radius), key=encode)
        for size in (1, 2, 3, 5, 8):
            for _ in range(3):
                a = explicit(group, rng.sample(ball, size))
                for a in (a, symmetrize(a)):
                    candidates = [group.identity(), *rng.sample(ball, 6)]
                    if involution is not None:
                        candidates.append(involution)
                    if group is LAMP:
                        candidates.append(analytic_switcher(certify(a)))
                    cases.append((a, candidates))
    return cases


def test_scan_equals_the_pair_loop_references():
    outcomes = {"switcher": set(), "superswitcher": set()}
    left_cursor_signs = set()
    for a, candidates in _scan_cases():
        for b in candidates:
            for check, reference in (
                (is_switcher, _reference_switcher),
                (is_superswitcher, _reference_superswitcher),
            ):
                got, want = check(b, a), reference(b, a)
                assert got == want, (b, sorted(a.elements, key=encode))
                outcomes[got.kind].add((a.group.kind, want.passed, want.reason.split(" ")[-1]))
                if b == inverse(b):
                    outcomes[got.kind].add(("identity" if b == a.group.identity() else "involution",
                                            want.passed))
            if a.group.kind == "lamplighter":
                for a1 in a.elements:
                    for bb in (b, inverse(b)):
                        t = multiply(a1, bb).cursor
                        left_cursor_signs.add((t > 0) - (t < 0))
    # every group kind passes and fails both ways: a product back in A and a collision
    for kind, collision in (("switcher", "a1*b*a2"), ("superswitcher", "a1*b^s*a2")):
        for group in ("lamplighter", "product", "abelian-control"):
            assert (group, True, "") in outcomes[kind]
            assert (group, False, "A") in outcomes[kind]
            assert (group, False, collision) in outcomes[kind]
        for b in ("identity", "involution"):
            assert {(b, True), (b, False)} <= outcomes[kind]
    assert left_cursor_signs == {-1, 0, 1}


# Planted lamplighter failures for the bucketed scan.  In each, the first
# failing bucket that the scan visits is not the one holding the lowest
# failing triple, so the report is right only if it takes the minimum over
# all buckets.  "in A" is a product that lands back in A, "repeat" a product
# met before; b = ({1}, 0) and ({0}, 0) are their own inverses.
_BUCKET_ORDER_CASES = {
    # both failures repeat a product
    "later-bucket-repeats-first": (("-1|-1,0", "0|0", "2|0", "3|"), "-1|-1"),
    "later-bucket-repeats-first-pairs": (("-1|0", "-3|", "0|0", "1|", "2|"), "-1|-1"),
    # the first bucket visited lands in A, a later one repeats at a lower index
    "in-A-then-lower-repeat": (("-1|", "-1|-1,0", "-2|0", "-3|", "0|"), "-1|-1"),
    "in-A-then-lower-repeat-triples": (("-1|0", "-3|", "0|0", "1|0", "1|1"), "2|0"),
    # the first bucket visited repeats, a later one lands in A at a lower index
    "repeat-then-lower-in-A": (("-1|-1", "-2|", "-2|0", "0|", "0|1"), "-1|"),
    "repeat-then-lower-in-A-triples": (("-2|0", "0|1", "1|0,1", "2|"), "-1|0"),
    # a bucket visited later fails past the lowest failure found so far, in
    # a row that starts below it: its failure must not replace the lower one
    "later-bucket-fails-higher": (("-1|-1,0", "0|", "0|-1", "1|0", "2|1"), "-1|0"),
    "involution-later-bucket-fails-higher": (("-1|-1,0", "-2|-2", "0|-1", "0|0", "1|"), "0|0"),
    # b = b^-1: the superswitcher scan runs one sign
    "involution-in-A-then-lower-repeat": (("-1|-1,0", "-2|-2", "0|", "1|0", "3|"), "0|0"),
    "involution-repeat-then-lower-in-A": (("0|", "0|-1", "2|", "2|1"), "0|1"),
    "involution-later-bucket-repeats-first": (("-1|-1,0", "-2|-1", "-3|", "0|-1", "1|0,1"), "0|1"),
}


@pytest.mark.parametrize("case", sorted(_BUCKET_ORDER_CASES))
def test_the_lowest_failure_over_all_buckets_is_reported(case):
    elems, b = _BUCKET_ORDER_CASES[case]
    a, b = explicit(LAMP, map(decode, elems)), decode(b)
    assert (b == inverse(b)) == case.startswith("involution")
    for check, reference in ((is_switcher, _reference_switcher), (is_superswitcher, _reference_superswitcher)):
        want = reference(b, a)
        assert not want.passed
        assert check(b, a) == want


# -- the row kernel ------------------------------------------------------------------


def test_row_kernel_equals_multiply():
    rng = random.Random(15)

    def element():
        lo = rng.randrange(-12, 12)
        return LamplighterElement(sorted(rng.sample(range(lo, lo + 8), rng.randrange(0, 5))),
                                  rng.randrange(-6, 7))

    shapes = set()
    for _ in range(60):
        rights = [element() for _ in range(rng.randrange(0, 10))]
        row = _product_row(rights)
        for _ in range(12):
            left = element()
            got, want = list(row(left)), [multiply(left, r) for r in rights]
            assert got == want
            assert [hash(x) for x in got] == [hash(x) for x in want]
            for r in rights:
                mine, theirs = left.lamps, tuple(p + left.cursor for p in r.lamps)
                if not mine or not theirs:
                    shapes.add("empty")
                elif mine[-1] < theirs[0]:
                    shapes.add("right of the left lamps")
                elif theirs[-1] < mine[0]:
                    shapes.add("left of the left lamps")
                else:
                    shapes.add("overlap")
                shapes.add(("cursor", (left.cursor > 0) - (left.cursor < 0)))
    assert shapes == {
        "empty", "right of the left lamps", "left of the left lamps", "overlap",
        ("cursor", -1), ("cursor", 0), ("cursor", 1),
    }


def test_row_kernel_multiplies_other_kinds():
    for group, radius in ((PRODUCT, 1), (CONTROL, 2)):
        ball = sorted(word_ball(group, radius), key=encode)
        row = _product_row(ball)
        for left in ball:
            got = list(row(left))
            assert got == [multiply(left, r) for r in ball]
            assert all(type(x) is type(left) for x in got)
