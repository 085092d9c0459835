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

Element materialization is capped: steps whose level exceeds the cap keep
exact (k, y, sigma) metadata but no group element, since deep-level boxes are
not materializable at desk scale.  Partial products are available up to the
first unmaterialized step.

``pmf_eval`` is the exact step law read backwards, by parsing a given element
at oracle scale; the forward law, every branch enumerated with its mass, is
``tvbound.exact_joint_pmf``.
"""

from __future__ import annotations

import bisect
import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .construction import Construction
from .errors import CorruptFileError, OracleRangeError
from .groups import ProductElement, encode, inverse, multiply
from .setalg import ORACLE_BOX_CAP

DEFAULT_EXPONENT = 1.25
DEFAULT_TRUNCATION = 1_000_000


class KDistribution:
    """Truncated power-law level distribution with inversion sampling."""

    def __init__(self, truncation: int = DEFAULT_TRUNCATION, exponent: float = DEFAULT_EXPONENT):
        if truncation < 1:
            raise ValueError("truncation level must be >= 1")
        self.truncation = truncation
        self.exponent = exponent
        weights = [k ** -exponent for k in range(1, truncation + 1)]
        self.normalizer = math.fsum(weights)
        self._pmf = [w / self.normalizer for w in weights]
        del weights  # freed before the cumulative table: two float tables at peak, not three
        self._cum = list(accumulate(self._pmf))
        self._cum[-1] = 1.0

    def pmf(self, k: int) -> float:
        if 1 <= k <= self.truncation:
            return self._pmf[k - 1]
        return 0.0

    def pmf_vector(self) -> list[float]:
        return list(self._pmf)

    def sample(self, rng) -> int:
        return bisect.bisect_right(self._cum, rng.random()) + 1


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

    @property
    def materialized(self) -> bool:
        return self.x is not None


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
    ``steps[i]``, which also drops the partial products from step i + 1 on
    and the record scan that ``analysis`` caches in ``_scan``.
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
            return self._identity()
        if n - 1 < len(self.zs):
            return self.zs[n - 1]
        raise OracleRangeError(
            f"partial product z_{n} not materialized (cap hit at step {len(self.zs) + 1})"
        )

    def z_materialized(self, n: int) -> bool:
        return n == 0 or n - 1 < len(self.zs)

    def _identity(self) -> ProductElement:
        from .groups import lamplighter_group, product_group

        lamp = lamplighter_group()
        return product_group(lamp, lamp).identity()


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
        traj._scan = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def walk(
    c: Construction,
    horizon: int,
    rng,
    kdist: Optional[KDistribution] = None,
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
    kdist = kdist or KDistribution()
    cap = kdist.truncation if x_level_cap is None else x_level_cap
    symmetric = c.mode == "symmetric"
    ks, red, elements, zs = [], bytearray(), {}, []
    neg = bytearray() if symmetric else None
    cum, random, getrandbits = kdist._cum, rng.random, rng.getrandbits
    bisect_right = bisect.bisect_right
    for i in range(horizon):
        k = bisect_right(cum, random()) + 1
        is_red = _is_red(k, getrandbits)
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
        if len(zs) == i:
            zs.append(multiply(zs[-1], x) if zs else x)
    return Trajectory(ks, red, neg, elements, zs)


# -- exact pmf oracle ----------------------------------------------------------


def _blue_parses(c: Construction, k: int, g: ProductElement):
    """All (f1, f2) with X_blue(k, f1, f2) = g, by bounded enumeration."""
    level = c.level(k)
    box = level.box()
    if not box.fits(ORACLE_BOX_CAP):
        raise OracleRangeError(f"level {k} box too large for the exact oracle")
    out = []
    for f1 in box.iter_elements():
        for f2 in box.iter_elements():
            if level.blue_increment(f1, f2) == g:
                out.append((f1, f2))
    return out


def _plain_mass(c: Construction, g: ProductElement, kdist: KDistribution) -> float:
    """P(V = g) where V is the sigma=+1 increment form."""
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
                raise AssertionError("blue parse not unique; switcher breach")
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

    report = analyze_records(traj.ks())
    records = set(report.record_times)
    simple = set(report.simple_record_times)
    flags = stable_so_far_flags(traj)
    ints: dict = {}  # one decimal conversion per distinct integer in this file
    with open(path, "w", newline="") as fh:
        if manifest_digest:
            fh.write(f"# manifest {manifest_digest}\n")
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for i, step in enumerate(traj.steps, start=1):
            x_cell = _cell(encode(step.x, ints)) if step.x is not None else ""
            z_cell = _cell(encode(traj.z(i), ints)) if traj.z_materialized(i) else ""
            fh.write(
                f"{i},{step.k},{step.y},{step.sigma},{x_cell},{z_cell},"
                f"{int(i in records)},{int(i in simple)},{int(flags[i - 1])}\r\n"
            )


def read_trajectory_csv(path) -> Trajectory:
    from .groups import decode

    csv.field_size_limit(2**31 - 1)  # partial products outgrow the default cap
    traj = Trajectory([], bytearray(), bytearray())
    ints: dict = {}  # one int() per distinct integer text in this file
    with open(path) as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        if header != TRAJECTORY_COLUMNS:
            raise OracleRangeError(f"unexpected trajectory columns: {header}")
        for i, row in enumerate(reader):
            (_, k, y, sigma, x_text, z_text, *_rest) = row
            if y not in ("red", "blue") or sigma not in ("1", "-1"):
                raise CorruptFileError(f"{path}: step {i + 1} has colour {y!r} and sign {sigma!r}")
            traj.k.append(int(k))
            traj.red.append(y == "red")
            traj.neg.append(sigma == "-1")
            if x_text:
                traj.elements[i] = (None, None, decode(x_text, table=ints))
            if z_text and len(traj.zs) == i:
                traj.zs.append(decode(z_text, table=ints))
    return traj
