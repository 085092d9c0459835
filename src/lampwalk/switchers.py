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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .groups import (
    Element,
    GroupDescriptor,
    LamplighterElement,
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
    against = f"explicit set of {len(a)} elements"
    elems = a.sorted_elements()
    members = a.elements
    seen = {}
    for a1 in elems:
        a1b = multiply(a1, b)
        for a2 in elems:
            prod = multiply(a1b, a2)
            if prod in members:
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


def is_superswitcher(b: Element, a: ExplicitSet) -> SwitcherReport:
    """Both disjointness clauses plus joint injectivity over A x {+-1} x A.

    When b equals its own inverse the two signs give the same products, which
    the definition allows; any other collision is a counterexample.
    """
    against = f"explicit set of {len(a)} elements"
    binv = inverse(b)
    b_self_inverse = b == binv
    elems = a.sorted_elements()
    members = a.elements
    seen = {}
    for sign, bb in ((1, b), (-1, binv)):
        for a1 in elems:
            a1b = multiply(a1, bb)
            for a2 in elems:
                prod = multiply(a1b, a2)
                if prod in members:
                    return SwitcherReport(
                        b, "superswitcher", False, "brute", against,
                        witness=(a1, sign, a2),
                        reason=f"A meets A b^{sign} A",
                    )
                if prod in seen:
                    p1, psign, p2 = seen[prod]
                    same_b_power = psign == sign or b_self_inverse
                    if not (p1 == a1 and p2 == a2 and same_b_power):
                        return SwitcherReport(
                            b, "superswitcher", False, "brute", against,
                            witness=((p1, psign, p2), (a1, sign, a2)),
                            reason="two triples give the same product a1*b^s*a2",
                        )
                else:
                    seen[prod] = (a1, sign, a2)
    return SwitcherReport(b, "superswitcher", True, "brute", against)


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

