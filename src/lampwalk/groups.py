"""Exact arithmetic, canonical encoding, and breadth-first enumeration.

Three group kinds are supported:

* the lamplighter group Z/2 wr Z, elements stored as (finite lamp set, cursor);
* direct products of two supported groups, stored componentwise;
* Z^2 as an abelian control group (a hyper-FC group in which switchers for
  sets of size >= 2 must not exist).

Multiplication follows the left-shift convention

    (L1, t1) * (L2, t2) = (L1 xor (L2 + t1), t1 + t2)

where L + t shifts every lamp index by t.  Every window certificate downstream
depends on this convention, so it is fixed here once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

from .errors import GroupMismatchError, ParseError, SizeCapError

# deep schedule levels carry cursors with 10^5+ digits; keep them encodable
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))


@dataclass(frozen=True)
class LamplighterElement:
    """Element of Z/2 wr Z: lit lamps (sorted tuple of ints) and a cursor."""

    lamps: tuple[int, ...]
    cursor: int

    def __post_init__(self):
        if list(self.lamps) != sorted(set(self.lamps)):
            raise ValueError(f"lamps must be sorted and duplicate-free: {self.lamps}")

    def __mul__(self, other: "LamplighterElement") -> "LamplighterElement":
        if not isinstance(other, LamplighterElement):
            raise GroupMismatchError(f"cannot multiply lamplighter element by {type(other).__name__}")
        t = self.cursor
        lamps = set(self.lamps).symmetric_difference([p + t for p in other.lamps])
        return _lamp(tuple(sorted(lamps)), t + other.cursor)

    def inverse(self) -> "LamplighterElement":
        t = self.cursor
        # a shift keeps the lamps strictly ascending
        return _lamp(tuple([p - t for p in self.lamps]), -t)

    def is_identity(self) -> bool:
        return not self.lamps and self.cursor == 0


def _lamp(lamps: tuple[int, ...], cursor: int) -> LamplighterElement:
    """Unvalidated constructor; the caller guarantees strictly ascending lamps.

    Outside input goes through the public constructor or decode, which validate.
    """
    g = object.__new__(LamplighterElement)
    object.__setattr__(g, "lamps", lamps)
    object.__setattr__(g, "cursor", cursor)
    return g


@dataclass(frozen=True)
class ProductElement:
    """Element of a direct product, stored componentwise."""

    left: object
    right: object

    def __mul__(self, other: "ProductElement") -> "ProductElement":
        if not isinstance(other, ProductElement):
            raise GroupMismatchError(f"cannot multiply product element by {type(other).__name__}")
        return ProductElement(multiply(self.left, other.left), multiply(self.right, other.right))

    def inverse(self) -> "ProductElement":
        return ProductElement(inverse(self.left), inverse(self.right))

    def is_identity(self) -> bool:
        return is_identity(self.left) and is_identity(self.right)


@dataclass(frozen=True)
class AbelianControlElement:
    """Element of Z^2 under componentwise addition."""

    x: int
    y: int

    def __mul__(self, other: "AbelianControlElement") -> "AbelianControlElement":
        if not isinstance(other, AbelianControlElement):
            raise GroupMismatchError(f"cannot multiply control element by {type(other).__name__}")
        return AbelianControlElement(self.x + other.x, self.y + other.y)

    def inverse(self) -> "AbelianControlElement":
        return AbelianControlElement(-self.x, -self.y)

    def is_identity(self) -> bool:
        return self.x == 0 and self.y == 0


Element = LamplighterElement | ProductElement | AbelianControlElement

LAMP_IDENTITY = LamplighterElement((), 0)
LAMP_A = LamplighterElement((0,), 0)
LAMP_S = LamplighterElement((), 1)
LAMP_S_INV = LamplighterElement((), -1)

ENCODING_VERSION = "1"


@dataclass(frozen=True)
class GroupDescriptor:
    """Group kind plus its fixed symmetric generating set.

    The generating sets are pinned so that breadth-first enumeration order is
    reproducible:

    * lamplighter: {a=({0},0), s=(0,1), s^-1=(0,-1)};
    * product: {(g,e)} U {(e,h)} over the component generators;
    * abelian control: the four unit vectors.
    """

    kind: str
    children: tuple["GroupDescriptor", ...] = ()
    encoding_version: str = ENCODING_VERSION

    def identity(self) -> Element:
        if self.kind == "lamplighter":
            return LAMP_IDENTITY
        if self.kind == "product":
            return ProductElement(self.children[0].identity(), self.children[1].identity())
        if self.kind == "abelian-control":
            return AbelianControlElement(0, 0)
        raise ValueError(f"unknown group kind {self.kind!r}")

    def generators(self) -> tuple[Element, ...]:
        if self.kind == "lamplighter":
            return (LAMP_A, LAMP_S, LAMP_S_INV)
        if self.kind == "abelian-control":
            return (
                AbelianControlElement(1, 0),
                AbelianControlElement(-1, 0),
                AbelianControlElement(0, 1),
                AbelianControlElement(0, -1),
            )
        if self.kind == "product":
            lgens = self.children[0].generators()
            rgens = self.children[1].generators()
            le = self.children[0].identity()
            re = self.children[1].identity()
            return tuple(ProductElement(g, re) for g in lgens) + tuple(
                ProductElement(le, h) for h in rgens
            )
        raise ValueError(f"unknown group kind {self.kind!r}")

    def owns(self, g: Element) -> bool:
        if self.kind == "lamplighter":
            return isinstance(g, LamplighterElement)
        if self.kind == "abelian-control":
            return isinstance(g, AbelianControlElement)
        if self.kind == "product":
            return (
                isinstance(g, ProductElement)
                and self.children[0].owns(g.left)
                and self.children[1].owns(g.right)
            )
        return False


def lamplighter_group() -> GroupDescriptor:
    return GroupDescriptor("lamplighter")


def abelian_control_group() -> GroupDescriptor:
    return GroupDescriptor("abelian-control")


def product_group(left: GroupDescriptor, right: GroupDescriptor) -> GroupDescriptor:
    return GroupDescriptor("product", (left, right))


def multiply(a: Element, b: Element) -> Element:
    if type(a) is not type(b):
        raise GroupMismatchError(f"cannot multiply {type(a).__name__} by {type(b).__name__}")
    return a * b


def inverse(a: Element) -> Element:
    return a.inverse()


def is_identity(a: Element) -> bool:
    return a.is_identity()


def product_of(elements, identity: Element) -> Element:
    out = identity
    for x in elements:
        out = multiply(out, x)
    return out


# -- canonical encoding ------------------------------------------------------
#
# lamplighter:      <cursor>|<lamp>,<lamp>,...   lamps sorted ascending
# product:          (<enc-left>;<enc-right>)     split at top-level ';'
# abelian control:  <x>,<y>


def encode(a: Element) -> str:
    if isinstance(a, LamplighterElement):
        return f"{a.cursor}|{','.join(str(p) for p in a.lamps)}"
    if isinstance(a, ProductElement):
        return f"({encode(a.left)};{encode(a.right)})"
    if isinstance(a, AbelianControlElement):
        return f"{a.x},{a.y}"
    raise GroupMismatchError(f"cannot encode {type(a).__name__}")


def _parse_int(text: str, offset: int) -> int:
    stripped = text.strip()
    if not stripped:
        raise ParseError("expected an integer, got empty field", text, offset)
    try:
        return int(stripped)
    except ValueError:
        raise ParseError(f"not an integer: {stripped!r}", text, offset) from None


def decode(text: str, offset: int = 0) -> Element:
    """Parse the canonical grammar; rejects non-canonical lamp lists."""
    if text.startswith("("):
        if not text.endswith(")"):
            raise ParseError("unbalanced parentheses", text, offset + len(text) - 1)
        inner = text[1:-1]
        depth = 0
        split = -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == ";" and depth == 0:
                split = i
                break
        if split < 0:
            raise ParseError("product element needs a top-level ';'", text, offset)
        left = decode(inner[:split], offset + 1)
        right = decode(inner[split + 1 :], offset + 2 + split)
        return ProductElement(left, right)
    if "|" in text:
        bar = text.index("|")
        cursor = _parse_int(text[:bar], offset)
        lamp_text = text[bar + 1 :]
        if not lamp_text:
            return _lamp((), cursor)
        lamps = []
        pos = offset + bar + 1
        for field in lamp_text.split(","):
            lamps.append(_parse_int(field, pos))
            pos += len(field) + 1
        for prev, nxt in zip(lamps, lamps[1:]):
            if prev >= nxt:
                raise ParseError(
                    f"lamps not strictly ascending: {prev} before {nxt}", text, offset + bar + 1
                )
        return _lamp(tuple(lamps), cursor)
    if "," in text:
        comma = text.index(",")
        x = _parse_int(text[:comma], offset)
        y = _parse_int(text[comma + 1 :], offset + comma + 1)
        return AbelianControlElement(x, y)
    raise ParseError("unrecognized element grammar", text, offset)


# -- enumeration -------------------------------------------------------------


def _bfs_layers(g: GroupDescriptor) -> Iterator[list[Element]]:
    """Yield breadth-first layers; ties inside a layer broken by encoding."""
    seen = {g.identity()}
    layer = [g.identity()]
    gens = g.generators()
    yield layer
    while layer:
        nxt = set()
        for x in layer:
            for gen in gens:
                y = multiply(x, gen)
                if y not in seen:
                    nxt.add(y)
        seen.update(nxt)
        layer = sorted(nxt, key=encode)
        yield layer


def enumerate_elements(g: GroupDescriptor, n: int) -> list[Element]:
    """First n distinct elements in breadth-first order; element 1 is e."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[Element] = []
    for layer in _bfs_layers(g):
        if not layer:
            break
        out.extend(layer)
        if len(out) >= n:
            return out[:n]
    return out


class LazyEnumeration:
    """Cache of the breadth-first enumeration, extended on demand."""

    def __init__(self, g: GroupDescriptor):
        self.group = g
        self._layers = _bfs_layers(g)
        self._cache: list[Element] = []

    def element(self, index: int) -> Element:
        """0-based index into the enumeration."""
        while len(self._cache) <= index:
            layer = next(self._layers)
            if not layer:
                raise IndexError(f"group exhausted before index {index}")
            self._cache.extend(layer)
        return self._cache[index]

    def index_of(self, g: Element, scan_limit: int = 200_000) -> int:
        for i in range(scan_limit):
            if self.element(i) == g:
                return i
        raise IndexError(f"{encode(g)} not found in the first {scan_limit} enumerated elements")


def word_ball(g: GroupDescriptor, r: int, size_cap: int = 1_000_000) -> set[Element]:
    """All elements of word length <= r over the fixed generating set."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    out: set[Element] = set()
    for depth, layer in enumerate(_bfs_layers(g)):
        if depth > r or not layer:
            break
        out.update(layer)
        if len(out) > size_cap:
            raise SizeCapError(
                f"word ball of radius {r} exceeds the size cap (> {len(out)} elements)",
                predicted=len(out),
                cap=size_cap,
            )
    return out
