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
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .errors import GroupMismatchError, ParseError, SizeCapError

# the most elements a word ball, set product or skew-box enumeration may hold
DEFAULT_SIZE_CAP = 1_000_000

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


def _product_row(rights: list) -> Callable[[Element], Iterable]:
    """Row kernel: ``row(left)`` yields ``left * r`` for every r of ``rights``,
    in order.  Its callers are the brute switcher scan (``switchers._scan``)
    and the window index build (``analysis.WindowIndex._build_factor``).

    Lamplighter rows repeat ``__mul__`` on plain ``(lamps, cursor)`` tuples,
    which equal and hash like the elements (see the module docstring); the
    right-hand lamps are shifted once per distinct left cursor and kept for
    the kernel's lifetime.  Other kinds multiply element by element, lazily,
    so a scan that stops early skips the rest of the row.
    """
    if not all(type(r) is LamplighterElement for r in rights):
        return lambda left: map(left.__mul__, rights)
    shifted = {}  # left cursor -> [(right lamps shifted by it, product cursor)]

    def row(left):
        lamps, t = left
        cached = shifted.get(t)
        if cached is None:
            cached = shifted[t] = [
                (tuple([p + t for p in theirs]) if t else theirs, t + c) for theirs, c in rights
            ]
        if not lamps:
            return cached
        lo, hi = lamps[0], lamps[-1]
        mine = None
        out = []
        for theirs, cursor in cached:
            # lamp ranges that do not meet concatenate; only overlaps need the xor
            if not theirs:
                out.append((lamps, cursor))
            elif hi < theirs[0]:
                out.append((lamps + theirs, cursor))
            elif theirs[-1] < lo:
                out.append((theirs + lamps, cursor))
            else:
                if mine is None:
                    mine = set(lamps)
                out.append((tuple(sorted(mine.symmetric_difference(theirs))), cursor))
        return out

    return row


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
PRODUCT_IDENTITY = ProductElement(LAMP_IDENTITY, LAMP_IDENTITY)
LAMP_A = LamplighterElement((0,), 0)
LAMP_S = LamplighterElement((), 1)
LAMP_S_INV = LamplighterElement((), -1)

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
# integer:          0 | -?[1-9][0-9]*            up to DECIMAL_BITS bits, one text
#                   -?0x[1-9a-f][0-9a-f]*        past them, as hex() writes it
#                   (decimal within 14,000 bits fits CPython's default 4,300-digit
#                   limit and hex has none, so no interpreter setting is needed)
#
# ``encode`` and ``decode`` take an optional integer table (int -> text for
# encode, text -> int for decode) that a caller passes fresh for one batch of
# related elements, such as the cells of one file: deep partial products
# repeat integers thousands of digits long, and the table converts each
# distinct one once.  Without one, each call uses a fresh table; the table is
# only a cache, and the result is the same.

DECIMAL_BITS = 14_000
_DECIMAL_DIGITS = 4_215  # len(str(2**DECIMAL_BITS - 1))
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*|-?0x[1-9a-f][0-9a-f]*").fullmatch


def _int_text(n: int, table: dict) -> str:
    text = table.get(n)
    if text is None:
        text = table[n] = str(n) if n.bit_length() <= DECIMAL_BITS else hex(n)
    return text


def encode(a: Element, table: dict | None = None) -> str:
    if table is None:
        table = {}
    if isinstance(a, LamplighterElement):
        return f"{_int_text(a[1], table)}|{','.join([_int_text(p, table) for p in a[0]])}"
    if isinstance(a, AbelianControlElement):
        return f"{_int_text(a[0], table)},{_int_text(a[1], table)}"
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
        is_hex = "x" in text
        if not is_hex and len(text) - text.startswith("-") > _DECIMAL_DIGITS:
            raise ParseError(f"decimal integer past {DECIMAL_BITS} bits", text, offset)
        try:
            n = int(text, 16 if is_hex else 10)
        except ValueError:
            raise ParseError("integer past the interpreter's digit limit", text, offset) from None
        if (n.bit_length() > DECIMAL_BITS) != is_hex:
            raise ParseError(f"not the canonical form of a {n.bit_length()}-bit integer", text, offset)
        table[text] = n
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
                raise ParseError(f"lamps not strictly ascending: {_int_text(prev, {})} before"
                                 f" {_int_text(nxt, {})}", text, offset + bar + 1)
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
    enum = LazyEnumeration(g)
    enum.element(n - 1)
    return enum._cache[:n]


class LazyEnumeration:
    """Cache of the breadth-first enumeration, extended on demand.

    For a product group each layer also enters, per factor, every component
    not seen before with its first index, so a component's first index is a
    lookup instead of a scan.
    """

    def __init__(self, g: GroupDescriptor):
        self._layers = _bfs_layers(g)
        self._cache: list[Element] = []
        self._first = ({}, {}) if g.kind == "product" else None

    def _extend(self) -> None:
        layer = next(self._layers)
        if not layer:
            raise IndexError(f"group exhausted after {len(self._cache)} elements")
        if self._first is not None:
            lefts, rights = self._first
            for idx, (left, right) in enumerate(layer, len(self._cache)):
                lefts.setdefault(left, idx)
                rights.setdefault(right, idx)
        self._cache.extend(layer)

    def element(self, index: int) -> Element:
        """0-based index into the enumeration."""
        while len(self._cache) <= index:
            self._extend()
        return self._cache[index]

    def first_component_index(self, j: int, g: Element, bound: int) -> Optional[int]:
        """Smallest 0-based index below ``bound`` whose element has g as
        component j (1 or 2) of a product group, else None."""
        first = self._first[j - 1]
        while g not in first and len(self._cache) < bound:
            self._extend()
        idx = first.get(g)
        return idx if idx is not None and idx < bound else None


def word_ball(g: GroupDescriptor, r: int) -> set[Element]:
    """All elements of word length <= r over the fixed generating set."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    out: set[Element] = set()
    for depth, layer in enumerate(_bfs_layers(g)):
        if depth > r or not layer:
            break
        out.update(layer)
        if len(out) > DEFAULT_SIZE_CAP:
            raise SizeCapError(
                f"word ball of radius {r} exceeds the size cap (> {len(out)} elements)",
                predicted=len(out),
                cap=DEFAULT_SIZE_CAP,
            )
    return out
