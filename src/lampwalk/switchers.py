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
the one-sign case.  groups' row kernel builds each row a1 b^s A as plain
(lamps, cursor) tuples, only products on a cursor of A are looked up in A,
and the collision table maps a product to its first triple's int index,
which becomes elements only in a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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

    One pass over A x A checks the disjointness clause and the injectivity
    clause together and exits at the first counterexample of either kind.
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
    """The one brute scan over A x powers x A; the module docstring has its layout."""
    elems = a.sorted_elements()
    n = len(elems)
    cursors = {x[1] for x in elems}
    row = _product_row(elems)
    setdefault = {}.setdefault  # the collision table: product -> first triple index
    for si, bb in enumerate(powers):
        for i1, a1 in enumerate(elems):
            for i, prod in enumerate(row(multiply(a1, bb)), (si * n + i1) * n):
                if prod[1] in cursors and prod in a.elements:
                    return _failure(b, kind, elems, i)
                j = setdefault(prod, i)
                if j != i:
                    return _failure(b, kind, elems, i, j)
    return SwitcherReport(b, kind, True, "brute", f"explicit set of {n} elements")


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


def find_switcher_bfs(
    a: ExplicitSet, radius: int, group: Optional[GroupDescriptor] = None
) -> Optional[Element]:
    """First non-identity element of the radius ball, in encoding order (not
    BFS order), that passes is_switcher; else None."""
    for b in _ball_candidates(group or a.group, radius):
        if is_switcher(b, a).passed:
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

