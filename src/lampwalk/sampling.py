"""Coupled sampling of (K, Y, sigma, f1, f2), the increment X, and walks.

The level variable K has pmf k**(-5/4) / c on 1..I (truncated, renormalized;
the exponent is a knob).  Y is "red" with probability exactly 2**-K, sampled
by exact bit blocks.  On blue steps two independent uniform box elements are
drawn by unranking uniform indices, and the increment is

    blue: X = (f1 b1 f2 b2,  f2 b1' f1 b2')^sigma         (``Level.blue_increment``)
    red:  X = (c1, c2)^sigma                              (``Level.red_increment``)

with sigma = +1 always in asymmetric mode.  Each marginal of a blue step is
f b1 s b2 with f, s independent and uniform on the level box, while the pair
stays coupled.

The law of K is one flat cumulative ``array('d')`` of 8 bytes per level (the
default truncation I = 10**6 keeps 8 MB), built with the floats of the
plain list formula, so every table entry and every draw is bit-identical to
that formula's.  A k-draw reads a guide table of power-of-two buckets, and
bisects only the few table entries of a bucket that holds more than one;
see ``KDistribution``.

Element materialization is capped: steps whose level exceeds the cap keep
exact (k, y, sigma) metadata but no group element, since deep-level boxes are
not materializable at desk scale.  Partial products are available up to the
first unmaterialized step.

``pmf_eval`` is the exact step law read backwards, by parsing a given element
at oracle scale: for each box draw f1, factor 1's component of g fixes the
one candidate f2, which is solved for rather than searched.  The forward law,
every branch enumerated with its mass, is ``tvbound.exact_joint_pmf``.
"""

from __future__ import annotations

import bisect
import csv
import math
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .construction import Construction
from .errors import CorruptFileError, LampwalkError, OracleRangeError, ParseError
from .groups import PRODUCT_IDENTITY, LamplighterElement, ProductElement, decode, encode, inverse, multiply

DEFAULT_EXPONENT = 1.25
DEFAULT_TRUNCATION = 1_000_000
# The build converts _CHUNK levels at a time; the guide table has at most
# _GUIDE buckets.
_CHUNK = 4096
_GUIDE = 2**14


class KDistribution:
    """Truncated power-law level distribution with inversion sampling.

    The law is stored as one ``array('d')`` of cumulative probabilities,
    8 bytes per level, with the last entry forced to 1.0.  It is built with
    the floats of the list formula: the weights ``k ** -exponent``, their
    ``math.fsum`` as ``normalizer``, each ``w / normalizer``, and a
    left-to-right running sum.  The array is filled ``_CHUNK`` levels at a
    time, first with the weights and then, in place, with the sums, so the
    build also peaks near 8 bytes per level.  ``pmf`` and ``pmf_vector`` redo
    the same two operations on demand and return the same floats.

    A draw goes through a guide table of ``scale`` buckets, the least power
    of two at or above the truncation and at most ``_GUIDE``:
    ``_guide[j] = bisect_right(cum, j / scale)`` for j = 0 .. scale + 1, and
    ``_exact[j]`` is the level ``_guide[j] + 1`` when bucket j holds no table
    entry, else 0.  The draw is ``j = int(u * scale)``, then ``_exact[j]`` or
    a ``bisect_right`` of u over ``cum[_guide[j]:_guide[j + 1]]``.  Since
    ``scale`` is a power of two, ``u * scale`` and ``j / scale`` are exact,
    so j / scale <= u < (j + 1) / scale and the full-table bisect of u lies
    in [_guide[j], _guide[j + 1]]: the draw is exactly ``bisect_right`` over
    the whole table, and the sampled streams are those of that bisect.  The
    entry at j = scale covers u = 1.0.  At I = 10**6, 81% of the buckets
    resolve with one lookup.
    """

    def __init__(self, truncation: int = DEFAULT_TRUNCATION, exponent: float = DEFAULT_EXPONENT):
        if truncation < 1:
            raise ValueError("truncation level must be >= 1")
        self.truncation = truncation
        self.exponent = exponent
        # struct packs a list of floats into the array's doubles faster than
        # array.fromlist or slice assignment does
        cum = array("d")
        for lo in range(1, truncation + 1, _CHUNK):
            weights = [k ** -exponent for k in range(lo, min(lo + _CHUNK, truncation + 1))]
            cum.frombytes(struct.pack(f"{len(weights)}d", *weights))
        self.normalizer = normalizer = math.fsum(cum)
        total = 0.0
        for lo in range(0, truncation, _CHUNK):
            sums = list(accumulate([w / normalizer for w in cum[lo:lo + _CHUNK]], initial=total))
            del sums[0]
            total = sums[-1]
            struct.pack_into(f"{len(sums)}d", cum, lo * cum.itemsize, *sums)
        cum[-1] = 1.0
        self._cum = cum
        self._scale = scale = min(_GUIDE, 1 << (truncation - 1).bit_length())
        self._guide = guide = array("i", [bisect.bisect_right(cum, j / scale) for j in range(scale + 2)])
        self._exact = array("i", [g + 1 if g == h else 0 for g, h in zip(guide, guide[1:])])

    def pmf(self, k: int) -> float:
        if 1 <= k <= self.truncation:
            return k ** -self.exponent / self.normalizer
        return 0.0

    def pmf_vector(self) -> list[float]:
        return [k ** -self.exponent / self.normalizer for k in range(1, self.truncation + 1)]

    def sample(self, rng) -> int:
        u = rng.random()
        j = int(u * self._scale)
        return self._exact[j] or bisect.bisect_right(self._cum, u, self._guide[j], self._guide[j + 1]) + 1


def _is_red(k: int, getrandbits) -> bool:
    """True with probability exactly 2**-k, by 64-bit rejection blocks."""
    while k >= 64:
        if getrandbits(64):
            return False
        k -= 64
    return not (k and getrandbits(k))


def sample_y(k: int, rng) -> str:
    """'red' with probability exactly 2**-k (see ``_is_red``)."""
    return "red" if _is_red(k, rng.getrandbits) else "blue"


@dataclass(frozen=True)
class CoupledStep:
    k: int
    y: str
    sigma: int  # +1 always in asymmetric mode
    f1: Optional[object] = None
    f2: Optional[object] = None
    x: Optional[ProductElement] = None


def sample_x(
    c: Construction,
    rng,
    kdist: KDistribution,
    x_level_cap: Optional[int] = None,
) -> CoupledStep:
    """One coupled draw: a one-step ``walk``.

    Levels above ``x_level_cap`` are never read, so a metadata-only draw
    (cap 0) needs no built level at all.
    """
    return walk(c, 1, rng, kdist, x_level_cap).step(0)


@dataclass
class Trajectory:
    """A realized coupled walk, stored by column.

    Step i + 1 has level ``k[i]``, is red iff ``red[i]``, and has sign -1 iff
    ``neg[i]`` (``neg`` is None for an asymmetric walk, whose signs are all
    +1).  ``elements`` maps the index i of each materialized step to its
    ``(f1, f2, x)``; f1 and f2 are None on red steps and after a CSV round
    trip.  ``zs[i]`` is the partial product after step i + 1 and is populated
    while every increment so far is materialized.

    The columns are not changed after construction, except by assigning to
    ``steps[i]``.  That recomputes the partial products from step i + 1 on,
    up to the first step whose increment is not materialized, and drops the
    record scan that ``analysis`` caches in ``_scan``.
    """

    k: list
    red: bytearray
    neg: Optional[bytearray] = None
    elements: dict = field(default_factory=dict)
    zs: list = field(default_factory=list)
    _scan: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return len(self.k)

    def ks(self) -> list[int]:
        return list(self.k)

    def step(self, i: int) -> CoupledStep:
        """The step at 0-based index i, assembled from the columns."""
        f1, f2, x = self.elements.get(i, (None, None, None))
        sigma = -1 if self.neg and self.neg[i] else 1
        return CoupledStep(self.k[i], "red" if self.red[i] else "blue", sigma, f1, f2, x)

    @property
    def steps(self) -> _Steps:
        return _Steps(self)

    def z(self, n: int) -> ProductElement:
        """Partial product z_n = x_1 ... x_n (z_0 = identity)."""
        if n == 0:
            return PRODUCT_IDENTITY
        if n - 1 < len(self.zs):
            return self.zs[n - 1]
        raise OracleRangeError(
            f"partial product z_{n} not materialized (cap hit at step {len(self.zs) + 1})"
        )

    def z_materialized(self, n: int) -> bool:
        return n == 0 or n - 1 < len(self.zs)

    def _extend_zs(self) -> None:
        """Extend ``zs`` while the next step's increment is materialized."""
        zs, elements = self.zs, self.elements
        while len(zs) in elements:
            x = elements[len(zs)][2]
            zs.append(multiply(zs[-1], x) if zs else x)


class _Steps(Sequence):
    """The ``CoupledStep`` view of a trajectory, one step built per access."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return self._traj.horizon

    def __getitem__(self, i):
        indices = range(self._traj.horizon)[i]
        if isinstance(i, slice):
            return [self._traj.step(j) for j in indices]
        return self._traj.step(indices)

    def __iter__(self):
        return map(self._traj.step, range(self._traj.horizon))

    def __setitem__(self, i: int, step: CoupledStep) -> None:
        traj = self._traj
        i = range(traj.horizon)[i]
        if step.sigma == -1 and traj.neg is None:
            raise ValueError("an asymmetric trajectory has no -1 signs")
        traj.k[i] = step.k
        traj.red[i] = step.y == "red"
        if traj.neg is not None:
            traj.neg[i] = step.sigma == -1
        traj.elements.pop(i, None)
        if step.x is not None:
            traj.elements[i] = (step.f1, step.f2, step.x)
        del traj.zs[i:]
        traj._extend_zs()
        traj._scan = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def walk(
    c: Construction,
    horizon: int,
    rng,
    kdist: KDistribution,
    x_level_cap: Optional[int] = None,
) -> Trajectory:
    """Simulate ``horizon`` coupled steps; deterministic given the rng state.

    ``x_level_cap``: None materializes every increment (requires the
    construction built to the truncation level); 0 keeps metadata only;
    otherwise increments are materialized exactly for steps with k <= cap,
    which must be built.  Each step draws, in this order: k by inversion, its
    colour, its sign (symmetric mode), and on a materialized blue step the
    two box indices.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cap = kdist.truncation if x_level_cap is None else x_level_cap
    symmetric = c.mode == "symmetric"
    ks, red, elements = [], bytearray(), {}
    neg = bytearray() if symmetric else None
    cum, scale, guide, exact = kdist._cum, kdist._scale, kdist._guide, kdist._exact
    random, getrandbits, bisect_right = rng.random, rng.getrandbits, bisect.bisect_right
    for i in range(horizon):
        # KDistribution.sample and _is_red inline, as a call per step is slower:
        # the guide table's lookup, and the colour from one block of k < 64 bits
        u = random()
        j = int(u * scale)
        k = exact[j] or bisect_right(cum, u, guide[j], guide[j + 1]) + 1
        is_red = not getrandbits(k) if k < 64 else _is_red(k, getrandbits)
        ks.append(k)
        red.append(is_red)
        sigma = 1
        if symmetric:
            sigma = 1 if getrandbits(1) else -1
            neg.append(sigma == -1)
        if k > cap:
            continue
        level = c.level(k)
        if is_red:
            f1 = f2 = None
            x = level.red_increment(sigma)
        else:
            box = level.box()
            f1 = box.unrank(rng.randrange(box.size()))
            f2 = box.unrank(rng.randrange(box.size()))
            x = level.blue_increment(f1, f2, sigma)
        elements[i] = (f1, f2, x)
    traj = Trajectory(ks, red, neg, elements)
    traj._extend_zs()
    return traj


# -- exact pmf oracle ----------------------------------------------------------


def _blue_parses(c: Construction, k: int, g: ProductElement):
    """All (f1, f2) with X_blue(k, f1, f2) = g, in f1's box order.

    Factor 1's component f1 b1 f2 b2 = g.left fixes f2 for each f1
    (``FactorLevel.solve_other``), so there is at most one pair per f1.  It
    is kept when that f2 lies in the box and the whole increment, factor 2's
    component included, equals g.  This finds the pairs, in the same order,
    that a search over all of F x F finds, in |F| solves.
    """
    level = c.level(k)
    box = level.oracle_box()
    if not (isinstance(g, ProductElement) and isinstance(g.left, LamplighterElement)):
        return []
    solve = level.factor(1).solve_other
    out = []
    for f1 in box.iter_elements():
        f2 = solve(f1, g.left)
        if f2 in box and level.blue_increment(f1, f2) == g:
            out.append((f1, f2))
    return out


def _plain_mass(c: Construction, g: ProductElement, kdist: KDistribution) -> float:
    """P(V = g) where V is the sigma=+1 increment form.

    Each level adds its red mass when g is its red increment and its blue
    mass when g parses (``_blue_parses``); two parses are a switcher breach.
    """
    total = 0.0
    for k in range(1, kdist.truncation + 1):
        level = c.level(k)
        pk = kdist.pmf(k)
        red_p = 2.0 ** -k
        if g == level.red_increment():
            total += pk * red_p
        parses = _blue_parses(c, k, g)
        if parses:
            if len(parses) > 1:
                raise LampwalkError("blue parse not unique; switcher breach")
            size = level.box().size()
            total += pk * (1.0 - red_p) / (size * size)
    return total


def pmf_eval(c: Construction, g: ProductElement, kdist: KDistribution) -> float:
    """Exact nu(g) at oracle scale; symmetric mode averages over the sign."""
    if c.mode == "symmetric":
        a = _plain_mass(c, g, kdist)
        b = _plain_mass(c, inverse(g), kdist)
        return 0.5 * (a + b)
    return _plain_mass(c, g, kdist)


# -- trajectory CSV --------------------------------------------------------------

TRAJECTORY_COLUMNS = [
    "step", "k", "y", "sigma", "x", "z", "is_record", "is_simple_record",
    "stabilized_flag",
]


def _cell(text: str) -> str:
    """A CSV cell as ``csv.writer`` quotes it: these cells hold no quote or newline."""
    return f'"{text}"' if "," in text else text


def write_trajectory_csv(path, traj: Trajectory, manifest_digest: str = "") -> None:
    """One CRLF row per step after the header, each cell quoted iff it has a comma.

    The bytes equal a ``csv.writer`` rendering of the same rows.
    """
    from .analysis import analyze_records, stable_so_far_flags

    report = analyze_records(traj.k)
    records = set(report.record_times)
    simple = set(report.simple_record_times)
    flags = stable_so_far_flags(traj)
    neg = traj.neg or bytes(traj.horizon)
    ints: dict = {}  # one text conversion per distinct integer in this file
    with open(path, "w", newline="") as fh:
        if manifest_digest:
            fh.write(f"# manifest {manifest_digest}\n")
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for i, k in enumerate(traj.k, start=1):
            entry = traj.elements.get(i - 1)  # (f1, f2, x)
            x_cell = _cell(encode(entry[2], ints)) if entry else ""
            z_cell = _cell(encode(traj.z(i), ints)) if traj.z_materialized(i) else ""
            fh.write(
                f"{i},{k},{'red' if traj.red[i - 1] else 'blue'},{-1 if neg[i - 1] else 1},"
                f"{x_cell},{z_cell},"
                f"{int(i in records)},{int(i in simple)},{int(flags[i - 1])}\r\n"
            )


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory back; a bad header, row or cell raises ``CorruptFileError``
    with the path and the step, and a file that is not UTF-8 text with the path.

    The partial products are rebuilt from the x cells by the rule ``walk``
    follows, and each z cell must equal the product it stands for."""
    traj = Trajectory([], bytearray(), bytearray())
    ints: dict = {}  # one int() per distinct integer text in this file
    # partial products outgrow the default cap; the process-wide limit is
    # raised for this read only
    limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path) as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader, None)
            if header != TRAJECTORY_COLUMNS:
                raise CorruptFileError(f"{path}: unexpected trajectory columns: {header}")
            for step, row in enumerate(reader, start=1):
                if len(row) != len(TRAJECTORY_COLUMNS):
                    raise CorruptFileError(f"{path}: step {step} has {len(row)} cells")
                (step_text, k, y, sigma, x_text, z_text, *_rest) = row
                if step_text != str(step):
                    raise CorruptFileError(f"{path}: step {step} has step cell {step_text!r}")
                # the writer's ASCII digits; a level indexes the level law's table
                if not (k.isascii() and k.isdecimal()) or k.startswith("0") or len(k) > 18:
                    raise CorruptFileError(f"{path}: step {step} has level {k!r}")
                if y not in ("red", "blue") or sigma not in ("1", "-1"):
                    raise CorruptFileError(f"{path}: step {step} has colour {y!r} and sign {sigma!r}")
                traj.k.append(int(k))
                traj.red.append(y == "red")
                traj.neg.append(sigma == "-1")
                if x_text:
                    traj.elements[step - 1] = (None, None, decode(x_text, table=ints))
                if z_text:
                    # the writer fills z cells on the prefix of materialized steps
                    if not x_text or len(traj.zs) < step - 1:
                        raise CorruptFileError(f"{path}: step {step} has a z cell without"
                                               " its x cell or an earlier z cell")
                    traj._extend_zs()
                    if decode(z_text, table=ints) != traj.zs[-1]:
                        raise CorruptFileError(f"{path}: step {step} has a z cell that is not"
                                               " the product of the x cells up to it")
    except ParseError as exc:
        raise CorruptFileError(f"{path}: step {step}: {exc}") from None
    except UnicodeDecodeError:
        raise CorruptFileError(f"{path}: not UTF-8 text") from None
    finally:
        csv.field_size_limit(limit)
    if not traj.k:
        raise CorruptFileError(f"{path}: no steps")
    traj._extend_zs()
    return traj
