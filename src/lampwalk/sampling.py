"""Coupled sampling of (K, Y, sigma, f1, f2), the increment X, and walks.

The level variable K has pmf k**(-5/4) / c on 1..I (truncated, renormalized;
the exponent is a knob).  Y is "red" with probability exactly 2**-K, sampled
by exact bit blocks.  On blue steps two independent uniform box elements are
drawn by unranking uniform indices, and the increment is

    X = (f1 b1 f2 b2,  f2 b1' f1 b2')                     (asymmetric)
    X = (same)^sigma, red: (c1, c2)^sigma                 (symmetric)

(``Level.blue_increment``; each marginal is f b1 s b2 with f, s independent
and uniform on the level box, while the pair stays coupled.)

Element materialization is capped: steps whose level exceeds the cap keep
exact (k, y, sigma) metadata but no group element, since deep-level boxes are
not materializable at desk scale.  Partial products are available up to the
first unmaterialized step.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from typing import Optional

from .construction import Construction
from .errors import OracleRangeError
from .groups import ProductElement, encode, inverse, multiply

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
        cum = []
        acc = 0.0
        for p in self._pmf:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0
        self._cum = cum

    def pmf(self, k: int) -> float:
        if 1 <= k <= self.truncation:
            return self._pmf[k - 1]
        return 0.0

    def pmf_vector(self) -> list[float]:
        return list(self._pmf)

    def sample(self, rng) -> int:
        return bisect.bisect_right(self._cum, rng.random()) + 1


def sample_y(k: int, rng) -> str:
    """'red' with probability exactly 2**-k, by 64-bit rejection blocks."""
    while k >= 64:
        if rng.getrandbits(64):
            return "blue"
        k -= 64
    if k and rng.getrandbits(k):
        return "blue"
    return "red"


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
    """One coupled draw; the construction must hold every level it materializes.

    Levels above ``x_level_cap`` are never read, so a metadata-only draw
    (cap 0) needs no built level at all.
    """
    k = kdist.sample(rng)
    y = sample_y(k, rng)
    sigma = 1
    if c.mode == "symmetric":
        sigma = 1 if rng.getrandbits(1) else -1
    if x_level_cap is not None and k > x_level_cap:
        return CoupledStep(k, y, sigma)
    level = c.level(k)
    if y == "red":
        x = ProductElement(level.factor(1).c, level.factor(2).c)
        if sigma == -1:
            x = inverse(x)
        return CoupledStep(k, y, sigma, x=x)
    box = level.box()
    f1 = box.unrank(rng.randrange(box.size()))
    f2 = box.unrank(rng.randrange(box.size()))
    return CoupledStep(k, y, sigma, f1=f1, f2=f2, x=level.blue_increment(f1, f2, sigma))


@dataclass
class Trajectory:
    """A realized coupled walk with record metadata.

    ``zs[i]`` is the partial product after step i+1 and is populated while
    every increment so far is materialized.  Record metadata derives from the
    level sequence alone and is recomputable from the steps.
    """

    steps: list
    zs: list = field(default_factory=list)

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def ks(self) -> list[int]:
        return [s.k for s in self.steps]

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
    which must be built.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    kdist = kdist or KDistribution()
    steps = []
    zs = []
    z = None
    broken = False
    for _ in range(horizon):
        step = sample_x(c, rng, kdist, x_level_cap=x_level_cap)
        steps.append(step)
        if not broken and step.x is not None:
            z = step.x if z is None else multiply(z, step.x)
            zs.append(z)
        else:
            broken = True
    return Trajectory(steps=steps, zs=zs)


# -- exact pmf oracle ----------------------------------------------------------


def _blue_parses(c: Construction, k: int, g: ProductElement):
    """All (f1, f2) with X_blue(k, f1, f2) = g, by bounded enumeration."""
    level = c.level(k)
    box = level.box()
    if box.n.bit_length() > 20 or box.size() > 4096:
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
        red_p = 2.0 ** -k if k < 1074 else 0.0
        if g == ProductElement(level.factor(1).c, level.factor(2).c):
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


def support_enumeration(c: Construction, kdist: KDistribution) -> list[ProductElement]:
    """All elements nu charges (truncated law), each listed once."""
    out = set()
    for k in range(1, kdist.truncation + 1):
        level = c.level(k)
        box = level.box()
        if box.n.bit_length() > 20 or box.size() > 4096:
            raise OracleRangeError(f"level {k} box too large for support enumeration")
        reds = [ProductElement(level.factor(1).c, level.factor(2).c)]
        blues = [
            level.blue_increment(f1, f2)
            for f1 in box.iter_elements()
            for f2 in box.iter_elements()
        ]
        for g in reds + blues:
            out.add(g)
            if c.mode == "symmetric":
                out.add(inverse(g))
    return sorted(out, key=encode)


# -- trajectory CSV --------------------------------------------------------------

TRAJECTORY_COLUMNS = [
    "step", "k", "y", "sigma", "x", "z", "is_record", "is_simple_record",
    "stabilized_flag",
]


def write_trajectory_csv(path, traj: Trajectory, manifest_digest: str = "") -> None:
    from .analysis import analyze_records, stable_so_far_flags

    report = analyze_records(traj.ks())
    records = set(report.record_times)
    simple = set(report.simple_record_times)
    flags = stable_so_far_flags(traj)
    with open(path, "w", newline="") as fh:
        if manifest_digest:
            fh.write(f"# manifest {manifest_digest}\n")
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for i, step in enumerate(traj.steps, start=1):
            writer.writerow(
                [
                    i,
                    step.k,
                    step.y,
                    step.sigma,
                    encode(step.x) if step.x is not None else "",
                    encode(traj.z(i)) if traj.z_materialized(i) else "",
                    int(i in records),
                    int(i in simple),
                    int(flags[i - 1]),
                ]
            )


def read_trajectory_csv(path) -> Trajectory:
    from .groups import decode

    csv.field_size_limit(2**31 - 1)  # partial products outgrow the default cap
    steps = []
    zs = []
    broken = False
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header != TRAJECTORY_COLUMNS:
        raise OracleRangeError(f"unexpected trajectory columns: {header}")
    for row in reader:
        (_, k, y, sigma, x_text, z_text, *_rest) = row
        x = decode(x_text) if x_text else None
        steps.append(CoupledStep(int(k), y, int(sigma), x=x))
        if z_text and not broken:
            zs.append(decode(z_text))
        else:
            broken = True
    return Trajectory(steps=steps, zs=zs)
