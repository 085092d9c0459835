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

Elements are tuples: ``LamplighterElement`` is ``(lamps, cursor)``,
``ProductElement`` is ``(left, right)`` and ``AbelianControlElement`` is
``(x, y)``, subclasses of ``tuple`` whose fields are properties.  Hashing and
equality therefore run in C, and an element equals (and hashes like) the
plain tuple of its fields; no container mixes elements with plain tuples.
``*`` is the group product, and tuple repetition and concatenation are
closed off.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .errors import GroupMismatchError, ParseError, SizeCapError

# deep schedule levels carry cursors with 10^5+ digits; keep them encodable
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))

_new = tuple.__new__


class _TupleElement(tuple):
    """A two-field element stored as a tuple; subclasses name the fields."""

    __slots__ = ()
    _names: tuple[str, str]

    def __repr__(self) -> str:
        a, b = self._names
        return f"{type(self).__name__}({a}={self[0]!r}, {b}={self[1]!r})"

    def __getnewargs__(self):
        # copy and pickle rebuild through the public constructor
        return tuple(self)

    # tuple repetition and concatenation are not group operations
    def __rmul__(self, other):
        return NotImplemented

    def __add__(self, other):
        return NotImplemented


class LamplighterElement(_TupleElement):
    """Element of Z/2 wr Z: lit lamps (sorted tuple of ints) and a cursor.

    Stored as the tuple ``(lamps, cursor)``; see the module docstring.
    """

    __slots__ = ()
    _names = ("lamps", "cursor")

    def __new__(cls, lamps, cursor: int):
        lamps = tuple(lamps)
        if list(lamps) != sorted(set(lamps)):
            raise ValueError(f"lamps must be sorted and duplicate-free: {lamps}")
        return _new(cls, (lamps, cursor))

    lamps = property(itemgetter(0))
    cursor = property(itemgetter(1))

    def __mul__(self, other: "LamplighterElement") -> "LamplighterElement":
        if type(other) is not LamplighterElement:
            raise GroupMismatchError(f"cannot multiply lamplighter element by {type(other).__name__}")
        lamps = self[0]
        t = self[1]
        theirs = other[0]
        if theirs:
            if t:
                theirs = tuple([p + t for p in theirs])
            # lamp ranges that do not meet concatenate; only overlaps need the xor
            if not lamps or lamps[-1] < theirs[0]:
                lamps = lamps + theirs
            elif theirs[-1] < lamps[0]:
                lamps = theirs + lamps
            else:
                lamps = tuple(sorted(set(lamps).symmetric_difference(theirs)))
        return _new(LamplighterElement, (lamps, t + other[1]))

    def inverse(self) -> "LamplighterElement":
        t = self[1]
        # a shift keeps the lamps strictly ascending
        return _new(LamplighterElement, (tuple([p - t for p in self[0]]), -t))

    def is_identity(self) -> bool:
        return not self[0] and self[1] == 0


def _lamp(lamps: tuple[int, ...], cursor: int) -> LamplighterElement:
    """Unvalidated constructor; the caller guarantees strictly ascending lamps.

    Outside input goes through the public constructor or decode, which validate.
    """
    return _new(LamplighterElement, (lamps, cursor))


class ProductElement(_TupleElement):
    """Element of a direct product, stored as the tuple ``(left, right)``."""

    __slots__ = ()
    _names = ("left", "right")

    def __new__(cls, left, right):
        return _new(cls, (left, right))

    left = property(itemgetter(0))
    right = property(itemgetter(1))

    def __mul__(self, other: "ProductElement") -> "ProductElement":
        if type(other) is not ProductElement:
            raise GroupMismatchError(f"cannot multiply product element by {type(other).__name__}")
        return _new(ProductElement, (multiply(self[0], other[0]), multiply(self[1], other[1])))

    def inverse(self) -> "ProductElement":
        return _new(ProductElement, (inverse(self[0]), inverse(self[1])))

    def is_identity(self) -> bool:
        return is_identity(self[0]) and is_identity(self[1])


class AbelianControlElement(_TupleElement):
    """Element of Z^2 under componentwise addition, stored as ``(x, y)``."""

    __slots__ = ()
    _names = ("x", "y")

    def __new__(cls, x: int, y: int):
        return _new(cls, (x, y))

    x = property(itemgetter(0))
    y = property(itemgetter(1))

    def __mul__(self, other: "AbelianControlElement") -> "AbelianControlElement":
        if type(other) is not AbelianControlElement:
            raise GroupMismatchError(f"cannot multiply control element by {type(other).__name__}")
        return _new(AbelianControlElement, (self[0] + other[0], self[1] + other[1]))

    def inverse(self) -> "AbelianControlElement":
        return _new(AbelianControlElement, (-self[0], -self[1]))

    def is_identity(self) -> bool:
        return self[0] == 0 and self[1] == 0


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


def lamplighter_group() -> GroupDescriptor:
    return GroupDescriptor("lamplighter")


def abelian_control_group() -> GroupDescriptor:
    return GroupDescriptor("abelian-control")


def product_group(left: GroupDescriptor, right: GroupDescriptor) -> GroupDescriptor:
    return GroupDescriptor("product", (left, right))


def multiply(a: Element, b: Element) -> Element:
    # each element's __mul__ rejects an operand of another kind
    return a * b


def inverse(a: Element) -> Element:
    return a.inverse()


def is_identity(a: Element) -> bool:
    return a.is_identity()


# -- canonical encoding ------------------------------------------------------
#
# lamplighter:      <cursor>|<lamp>,<lamp>,...   lamps sorted ascending
# product:          (<enc-left>;<enc-right>)     split at top-level ';'
# abelian control:  <x>,<y>
# integer:          0 | -?[1-9][0-9]*            one text per integer
#
# ``encode`` and ``decode`` take an optional integer table (int -> text for
# encode, text -> int for decode) that a caller passes fresh for one batch of
# related elements, such as the cells of one file: deep partial products
# repeat integers thousands of digits long, and the table converts each
# distinct one once.  Without one, each call uses a fresh table; the table is
# only a cache, and the result is the same.

_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*").fullmatch


def _int_text(n: int, table: dict) -> str:
    text = table.get(n)
    if text is None:
        text = table[n] = str(n)
    return text


def encode(a: Element, table: dict | None = None) -> str:
    if table is None:
        table = {}
    try:
        if isinstance(a, LamplighterElement):
            return f"{_int_text(a[1], table)}|{','.join([_int_text(p, table) for p in a[0]])}"
        if isinstance(a, AbelianControlElement):
            return f"{_int_text(a[0], table)},{_int_text(a[1], table)}"
    except ValueError:
        # an integer past the interpreter's decimal-digit limit
        limit = sys.get_int_max_str_digits()
        raise SizeCapError(
            f"cannot encode: a cursor or lamp exceeds {limit} decimal digits",
            cap=limit,
        ) from None
    if isinstance(a, ProductElement):
        return f"({encode(a[0], table)};{encode(a[1], table)})"
    raise GroupMismatchError(f"cannot encode {type(a).__name__}")


def _parse_int(text: str, offset: int, table: dict) -> int:
    n = table.get(text)
    if n is None:
        if not text:
            raise ParseError("expected an integer, got empty field", text, offset)
        if not _CANONICAL_INT(text):
            raise ParseError(f"not a canonical integer: {text!r}", text, offset)
        try:
            n = table[text] = int(text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"integer exceeds {limit} decimal digits", text, offset) from None
    return n


def _top_level_split(inner: str) -> int:
    """Index of the first ';' of ``inner`` outside parentheses, or -1."""
    split = inner.find(";")
    if split < 0 or (inner.find("(", 0, split) < 0 and inner.find(")", 0, split) < 0):
        # no parenthesis before the first ';': it is at depth 0
        return split
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            return i
    return -1


def decode(text: str, offset: int = 0, table: dict | None = None) -> Element:
    """Parse the canonical grammar; rejects non-canonical integers and lamp lists."""
    if table is None:
        table = {}
    if text.startswith("("):
        if not text.endswith(")"):
            raise ParseError("unbalanced parentheses", text, offset + len(text) - 1)
        inner = text[1:-1]
        split = _top_level_split(inner)
        if split < 0:
            raise ParseError("product element needs a top-level ';'", text, offset)
        left = decode(inner[:split], offset + 1, table)
        right = decode(inner[split + 1 :], offset + 2 + split, table)
        return ProductElement(left, right)
    if "|" in text:
        bar = text.index("|")
        cursor = _parse_int(text[:bar], offset, table)
        lamp_text = text[bar + 1 :]
        if not lamp_text:
            return _lamp((), cursor)
        lamps = []
        pos = offset + bar + 1
        for field in lamp_text.split(","):
            lamps.append(_parse_int(field, pos, table))
            pos += len(field) + 1
        for prev, nxt in zip(lamps, lamps[1:]):
            if prev >= nxt:
                raise ParseError(
                    f"lamps not strictly ascending: {prev} before {nxt}", text, offset + bar + 1
                )
        return _lamp(tuple(lamps), cursor)
    if "," in text:
        comma = text.index(",")
        x = _parse_int(text[:comma], offset, table)
        y = _parse_int(text[comma + 1 :], offset + comma + 1, table)
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
