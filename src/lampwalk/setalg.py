"""Finite-subset algebra, skew-box families, and invariance certification.

The Folner family used throughout is the family of skew boxes

    SkewBox(n) = {(L, t) : t in [-(n-1), 0], L subset of [t, t+n-1]}

whose lamp window is anchored to the cursor.  Anchoring is what makes the
boxes almost invariant under both cursor moves and lamp toggles; an absolute
box loses a constant fraction under lamp toggles near its edge.

All cardinalities, overlaps, and invariance ratios here are exact integer or
Fraction arithmetic; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import CorruptFileError, MembershipError, ParseError, SizeCapError
from .groups import (
    DEFAULT_SIZE_CAP,
    Element,
    GroupDescriptor,
    LamplighterElement,
    _lamp,
    decode,
    encode,
    inverse,
    multiply,
)

# the largest boxes the exact oracles enumerate: the pmf oracles walk F x F,
# while window indexes and brute switcher scans also multiply by powers of A
ORACLE_BOX_CAP = 4096
BRUTE_BOX_CAP = 512


@dataclass(frozen=True)
class ExplicitSet:
    """A materialized subset of a group, keyed by exact element equality."""

    elements: frozenset
    group: GroupDescriptor

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self.sorted_elements())

    def sorted_elements(self) -> list[Element]:
        return list(self._sorted)

    @cached_property
    def _sorted(self) -> tuple:
        # a set that is scanned or iterated more than once is sorted once
        return tuple(sorted(self.elements, key=encode))


def explicit(group: GroupDescriptor, elements: Iterable[Element]) -> ExplicitSet:
    return ExplicitSet(frozenset(elements), group)


def read_set(path, group: GroupDescriptor):
    """One encoded element a line, blank lines skipped; a bad element or a file
    that is not UTF-8 text raises ``CorruptFileError`` with the path."""
    elems = []
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                if text := line.strip():
                    elems.append(decode(text))
    except UnicodeDecodeError:
        raise CorruptFileError(f"{path}: not UTF-8 text") from None
    except ParseError as exc:
        raise CorruptFileError(f"{path}: line {number}: {exc}") from None
    return explicit(group, elems)


def product_set(a: ExplicitSet, b: ExplicitSet) -> ExplicitSet:
    predicted = len(a) * len(b)
    if predicted > DEFAULT_SIZE_CAP:
        raise SizeCapError(
            f"set product would build up to {predicted} elements (cap {DEFAULT_SIZE_CAP})",
            predicted=predicted,
            cap=DEFAULT_SIZE_CAP,
        )
    out = {multiply(x, y) for x in a.elements for y in b.elements}
    return ExplicitSet(frozenset(out), a.group)


def power_set(a: ExplicitSet, n: int) -> ExplicitSet:
    """n-fold product set A * A * ... * A."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    out = a
    for _ in range(n - 1):
        out = product_set(out, a)
    return out


def symmetrize(a: ExplicitSet) -> ExplicitSet:
    return ExplicitSet(a.elements | {inverse(g) for g in a.elements}, a.group)


# -- skew boxes ---------------------------------------------------------------


@dataclass(frozen=True)
class SkewBox:
    """The cursor-anchored box of window size n; cardinality n * 2**n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("window size must be >= 1")

    def size(self) -> int:
        return self.n * (1 << self.n)

    def fits(self, cap: int) -> bool:
        """Whether the box has at most ``cap`` elements; n * 2**n exceeds cap
        once n reaches cap's bit length, so a huge n is never expanded."""
        return self.n < cap.bit_length() and self.size() <= cap

    def __contains__(self, g) -> bool:
        if not isinstance(g, LamplighterElement):
            return False
        n, t = self.n, g.cursor
        if not (-(n - 1) <= t <= 0):
            return False
        return all(t <= p <= t + n - 1 for p in g.lamps)

    def unrank(self, index: int) -> LamplighterElement:
        """The element of index (t+n-1)*2^n + binary lamp-window encoding."""
        n = self.n
        if not (0 <= index < self.size()):
            raise MembershipError(f"index {index} out of range for skewbox:{n}")
        block, mask = divmod(index, 1 << n)
        t = block - (n - 1)
        return _lamp(tuple(t + i for i in range(n) if (mask >> i) & 1), t)

    def iter_elements(self) -> Iterator[LamplighterElement]:
        if self.size() > DEFAULT_SIZE_CAP:
            raise SizeCapError(
                f"skewbox:{self.n} has {self.size()} elements (cap {DEFAULT_SIZE_CAP})",
                predicted=self.size(),
                cap=DEFAULT_SIZE_CAP,
            )
        for i in range(self.size()):
            yield self.unrank(i)

    def as_explicit(self, group: GroupDescriptor) -> ExplicitSet:
        return explicit(group, self.iter_elements())


# -- bound certificates -------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    """Sound window bounds: every certified (L, t) has |t| <= M, L in [-R, R]."""

    cursor_radius: int
    lamp_radius: int

    def covers(self, g: LamplighterElement) -> bool:
        M, R = self.cursor_radius, self.lamp_radius
        if abs(g.cursor) > M:
            return False
        return all(-R <= p <= R for p in g.lamps)

    def box_size(self) -> int:
        """Number of elements the certificate window can hold."""
        M, R = self.cursor_radius, self.lamp_radius
        return (2 * M + 1) * (1 << (2 * R + 1))


def certify(a) -> BoundCertificate:
    """Minimal certificate of an explicit lamplighter set or a skew box."""
    if isinstance(a, SkewBox):
        return BoundCertificate(a.n - 1, a.n - 1)
    M = 0
    R = 0
    for g in a.elements if isinstance(a, ExplicitSet) else a:
        if not isinstance(g, LamplighterElement):
            raise TypeError("certificates are defined for lamplighter sets only")
        M = max(M, abs(g.cursor))
        if g.lamps:
            R = max(R, -g.lamps[0], g.lamps[-1])
    return BoundCertificate(M, R)


def certify_product(c1: BoundCertificate, c2: BoundCertificate) -> BoundCertificate:
    """Sound certificate for {ab}: M1+M2 cursors, lamps from L1 or L2+t1."""
    return BoundCertificate(
        c1.cursor_radius + c2.cursor_radius,
        max(c1.lamp_radius, c2.lamp_radius + c1.cursor_radius),
    )


def certify_power(c: BoundCertificate, n: int) -> BoundCertificate:
    if n < 1:
        raise ValueError("exponent must be >= 1")
    M, R = c.cursor_radius, c.lamp_radius
    return BoundCertificate(n * M, R + (n - 1) * M)


def certify_union(*certs: BoundCertificate) -> BoundCertificate:
    return BoundCertificate(
        max(c.cursor_radius for c in certs), max(c.lamp_radius for c in certs)
    )


def certify_inverse(c: BoundCertificate) -> BoundCertificate:
    return BoundCertificate(c.cursor_radius, c.lamp_radius + c.cursor_radius)


def certify_symmetrize(c: BoundCertificate) -> BoundCertificate:
    return certify_union(c, certify_inverse(c))


# -- overlap and invariance arithmetic ---------------------------------------


def _loss_numer(g: LamplighterElement) -> int:
    """n - |gF intersect F| / 2^n for F = SkewBox(n), independent of n.

    With Lhat = lamps(g) union {0}, the overlap slice count is
    n - max(0, max(Lhat) - t) + min(0, min(Lhat) - t), clamped at 0.
    """
    t = g.cursor
    hi = max(g.lamps[-1], 0) if g.lamps else 0
    lo = min(g.lamps[0], 0) if g.lamps else 0
    return max(0, hi - t) - min(0, lo - t)


def skewbox_overlap(g: LamplighterElement, box: SkewBox) -> int:
    """Exact |gF intersect F| by closed-form window counting."""
    n = box.n
    slices = max(0, n - _loss_numer(g))
    return slices * (1 << n)


def worst_loss_numer(cert: BoundCertificate) -> int:
    """max over certified g of the loss numerator: M + R + max(0, R - M)."""
    M, R = cert.cursor_radius, cert.lamp_radius
    return M + R + max(0, R - M)


def _trace_count_sum(a: ExplicitSet, n: int) -> int:
    """Sum over output cursors t of the number of distinct off-window traces.

    |AF \\ F| = 2^n * result.  The slice of gF at output cursor t is the cube
    of lamp sets agreeing with lamps(g) outside the window [t, t+n-1]; two
    slices coincide iff their traces (lamps outside the window) coincide, and
    a slice lies inside F iff t is in range and the trace is empty.
    """
    by_g = []
    breakpoints = set()
    for g in a.elements:
        t_lo, t_hi = g.cursor - (n - 1), g.cursor
        by_g.append((g, t_lo, t_hi))
        breakpoints.update((t_lo, t_hi + 1))
        for p in g.lamps:
            # trace membership of lamp p changes at t = p - n + 1 and t = p + 1
            for b in (p - n + 1, p + 1):
                if t_lo <= b <= t_hi + 1:
                    breakpoints.add(b)
    breakpoints.update((-(n - 1), 1))
    cuts = sorted(breakpoints)
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        # traces are constant for t in [lo, hi)
        t = lo
        traces = set()
        for g, t_lo, t_hi in by_g:
            if t_lo <= t <= t_hi:
                traces.add(frozenset(p for p in g.lamps if p < t or p > t + n - 1))
        if -(n - 1) <= t <= 0:
            traces.discard(frozenset())
        total += len(traces) * (hi - lo)
    return total


def exact_union_loss(a: ExplicitSet, box: SkewBox) -> Fraction:
    """Exact |AF \\ F| / |F| without enumerating F."""
    return Fraction(_trace_count_sum(a, box.n), box.n)


@dataclass(frozen=True)
class FolnerCheck:
    passed: bool
    ratio: Fraction
    delta: Fraction
    mode: str  # "exact-union" or "subadditive"


def verify_folner(a: ExplicitSet, box: SkewBox, delta) -> FolnerCheck:
    """Exact check of |AF \\ F| < delta * |F| via trace arithmetic."""
    delta = Fraction(delta)
    ratio = exact_union_loss(a, box)
    return FolnerCheck(ratio < delta, ratio, delta, "exact-union")


def folner_for(
    cert: BoundCertificate,
    delta,
    card_bound: Optional[int] = None,
    elements: Optional[ExplicitSet] = None,
) -> SkewBox:
    """Smallest skew box certified (A, delta)-invariant for any covered A.

    The certificate is the subadditive union bound: with per-element loss
    numerator W(g) and |A| <= card_bound,

        |AF \\ F| <= sum_g |gF \\ F| <= card_bound * W_max * 2^n < delta * |F|.

    When the set is materialized the per-element numerators are summed
    exactly instead of using card_bound * W_max.  With delta = num/den the
    condition total/n < num/den is total*den < n*num, linear in n, so the
    least n is total*den // num + 1.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if elements is not None:
        total = sum(_loss_numer(g) for g in elements.elements)
    else:
        if card_bound is None:
            card_bound = cert.box_size()
        total = card_bound * worst_loss_numer(cert)
    return SkewBox(total * delta.denominator // delta.numerator + 1)
