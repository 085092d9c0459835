"""Switcher elements: brute-force verification, word-ball search, analytic builds.

An A-switcher is an element b with A * AbA disjoint from A and with
(a1, a2) -> a1 * b * a2 injective on A x A.  A super-switcher additionally
keeps A disjoint from A b^-1 A and makes (a1, sigma, a2) -> a1 b^sigma a2
injective over A x {+1,-1} x A, up to the unavoidable identification when
b equals its own inverse.

For lamplighter sets covered by a window certificate (M, R) both kinds are
built analytically as b = ({P}, N) with P = R+M+1 and N = 2R+3M+2: the lamp
zone [-R, R], the pin zone [P-M, P+M], and the shifted lamp zone
[N-R-M, N+R+M] are pairwise disjoint, so a product a1 b a2 reveals a1's
lamps, the pin reveals a1's cursor, and the rest reveals a2.  The cursor of
any product in A b^{+1} A sits in [N-2M, N+2M], which misses [-M, M] and
[-N-2M, -N+2M], giving the disjointness clauses and the sign recovery.

Both brute checks are one scan over the triples (s, a1, a2), indexed
(s * |A| + i1) * |A| + i2 in sign order, then A's sorted order; a switcher is
the one-sign case.  A failure is the lowest-index triple whose product lies in A
or repeats an earlier triple's product.  Two products with different cursors
differ, so lamplighter triples are checked one product-cursor bucket at a
time: A's elements are grouped by cursor, each group with its own row kernel
from groups, and a bucket holds the triples whose a1 * b^s and a2 cursors add
up to its cursor.  Each bucket is visited in increasing index order with its
own collision table (product -> first triple index), which is dropped before
the next bucket; products are looked up in A only in buckets on a cursor of A.
A bucket stops at the lowest failing index found so far, and the scan reports
the minimum over all buckets, which is the triple a single pass would stop at.
Other group kinds form one bucket.  Triples become elements only in a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .groups import (
    Element,
    GroupDescriptor,
    LamplighterElement,
    _product_row,
    encode,
    inverse,
    is_identity,
    multiply,
    word_ball,
)
from .setalg import BoundCertificate, ExplicitSet


@dataclass(frozen=True)
class SwitcherReport:
    candidate: Element
    kind: str  # "switcher" | "superswitcher"
    passed: bool
    mode: str  # "brute" | "certificate"
    verified_against: str
    witness: Optional[tuple] = None
    reason: str = ""

    def __bool__(self):
        return self.passed


def is_switcher(b: Element, a: ExplicitSet) -> SwitcherReport:
    """Exhaustive pair scan of both switcher conditions; fails with a witness.

    One scan over A x A checks the disjointness clause and the injectivity
    clause together and reports the first counterexample of either kind in
    pair order.
    """
    return _scan(b, a, "switcher", (b,))


def is_superswitcher(b: Element, a: ExplicitSet) -> SwitcherReport:
    """Both disjointness clauses plus joint injectivity over A x {+-1} x A.

    When b equals its own inverse the definition allows the two signs to give
    the same products; sign -1 then repeats sign +1, so only sign +1 is scanned.
    """
    binv = inverse(b)
    return _scan(b, a, "superswitcher", (b,) if b == binv else (b, binv))


def _scan(b: Element, a: ExplicitSet, kind: str, powers: tuple) -> SwitcherReport:
    """The report of the one brute scan over A x powers x A."""
    elems = a.sorted_elements()
    found = _lowest_failure(a, elems, powers)
    if found is None:
        return SwitcherReport(b, kind, True, "brute", f"explicit set of {len(elems)} elements")
    return _failure(b, kind, elems, *found)


def _lowest_failure(a: ExplicitSet, elems: list, powers: tuple) -> Optional[tuple]:
    """(i, j) of the lowest failing triple of the scan over A x powers x A,
    or None when it passes; the module docstring has its layout."""
    n = len(elems)
    found = None  # (i, j) of the lowest failing triple so far
    for members, in_a in _buckets(a, elems, powers):
        hit = _scan_bucket(members, n, in_a, found[0] if found else len(powers) * n * n)
        if hit is not None and (found is None or hit[0] < found[0]):
            found = hit
    return found


def _buckets(a: ExplicitSet, elems: list, powers: tuple) -> list:
    """The scan's buckets as (members, A or None).

    Members are (k, a1 * b^s, (right indices, row kernel)) in increasing
    k = s * |A| + i1.  A bucket carries A when one of its products can lie
    in A.  A lamplighter bucket pairs each left with the group of A's
    elements on the one cursor that puts the product on the bucket's
    cursor.  Other kinds form one bucket whose lefts are formed lazily, so a
    scan that fails early skips the rest.
    """
    pairs = enumerate(product(powers, elems))
    if a.group.kind != "lamplighter":
        rights = (range(len(elems)), _product_row(elems))
        return [(((k, multiply(a1, bb), rights) for k, (bb, a1) in pairs), a.elements)]
    by_cursor = {}  # cursor -> indices of A's elements on it
    for i2, r in enumerate(elems):
        by_cursor.setdefault(r[1], []).append(i2)
    groups = [(c, (i2s, _product_row([elems[i] for i in i2s]))) for c, i2s in by_cursor.items()]
    buckets = {}  # product cursor -> members
    for k, (bb, a1) in pairs:
        left = multiply(a1, bb)
        for c, rights in groups:
            buckets.setdefault(left[1] + c, []).append((k, left, rights))
    return [(members, a.elements if p in by_cursor else None) for p, members in buckets.items()]


def _scan_bucket(members, n: int, in_a, limit: int) -> Optional[tuple]:
    """First failing triple (i, j) of one bucket, or None once the bucket
    passes or reaches index ``limit``: the product of triple i lies in A
    (j is None), or repeats the product of triple j."""
    setdefault = {}.setdefault  # the bucket's collision table: product -> first triple index
    for k, left, (i2s, row) in members:
        base = k * n
        if base >= limit:
            return None
        for i2, prod in zip(i2s, row(left)):
            i = base + i2
            if in_a is not None and prod in in_a:
                return i, None
            j = setdefault(prod, i)
            if j != i:
                return i, j
    return None


def _failure(b: Element, kind: str, elems: list, i: int, j: Optional[int] = None) -> SwitcherReport:
    """Report of a scan stopped at triple i: its product is in A, or repeats triple j's."""
    n = len(elems)

    def triple(index):
        si, rest = divmod(index, n * n)
        a1, a2 = elems[rest // n], elems[rest % n]
        return (a1, a2) if kind == "switcher" else (a1, 1 - 2 * si, a2)

    w = triple(i)
    if j is not None:
        w = (triple(j), w)
        reason = ("two pairs give the same product a1*b*a2" if kind == "switcher"
                  else "two triples give the same product a1*b^s*a2")
    elif kind == "switcher":
        reason = f"{encode(w[0])}*b*{encode(w[1])} lands back in A"
    else:
        reason = f"A meets A b^{w[1]} A"
    return SwitcherReport(b, kind, False, "brute", f"explicit set of {n} elements", w, reason)


@lru_cache(maxsize=8)
def _ball_candidates(group: GroupDescriptor, radius: int) -> tuple:
    """The non-identity elements of the radius ball, in encoding order."""
    return tuple(sorted((b for b in word_ball(group, radius) if not is_identity(b)), key=encode))


def find_switcher_bfs(a: ExplicitSet, radius: int) -> Optional[Element]:
    """First non-identity element of the radius ball, in encoding order (not
    BFS order), that passes is_switcher; else None.  A rejected candidate
    builds no report."""
    elems = a.sorted_elements()
    for b in _ball_candidates(a.group, radius):
        if _lowest_failure(a, elems, (b,)) is None:
            return b
    return None


def analytic_switcher(cert: BoundCertificate) -> LamplighterElement:
    """Certified switcher ({R+M+1}, 2R+3M+2) for every set under the cert.

    It is a super-switcher as well: N = 2R+3M+2 > 3M keeps the three cursor
    windows [-N-2M, -N+2M], [-M, M], [N-2M, N+2M] pairwise disjoint and
    b != b^-1, so both modes use this one formula.
    """
    M, R = cert.cursor_radius, cert.lamp_radius
    return LamplighterElement((R + M + 1,), 2 * R + 3 * M + 2)

