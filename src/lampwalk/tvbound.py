"""Certified total-variation bounds for the marginal walks, plus exact oracles.

The certified bound conditions on the first "good record": a step m whose
level k is a strict record, at least the generator's membership level, blue,
with m <= k + 1 (so that the product of the earlier increments sits inside
A(j,k)^(m-1), every earlier level being strictly smaller), and with sign +1
in symmetric mode.  Conditioned on everything but the record step's own box
element, the n-step marginal is a coset-translated uniform measure on the
level-k box, so

    || h * mu^n - mu^n ||  <=  2 P(no good record)
                              + E[ 2(|h q1 F \\ F| + |q1 F \\ F|) / |F| ]

The record-failure probability is computed by exact dynamic programming over
the running maximum.  A draw above the running maximum is a strict record
whatever the maximum was, so each step's transitions factor through one
running sum of the states below the drawn level: a step costs O(I) and the
whole bound O(n I) for truncation level I.  The loss expectation uses the
exact box loss of h at first-step records and sound window-certificate bounds
otherwise.  Levels past the built range use the schedule guarantee (the box
chosen at level k makes every single element of A^(k+1) lose less than
(1/k) / card-bound of its set, which is astronomically small from level 4
on).

Everything here upper-bounds the true total-variation distance; the mini
schedule's convolution oracle checks that inequality exactly at small n.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

from .construction import Construction
from .errors import GroupMismatchError, MembershipError, OracleRangeError, SizeCapError
from .groups import Element, LamplighterElement, encode, is_identity, multiply
from .sampling import KDistribution
from .setalg import (
    certify,
    certify_power,
    certify_product,
    worst_loss_numer,
    _loss_numer,
)

DEFAULT_PMF_CAP = 200_000
# the truncation level of certified_marginal_bound without a kdist, and of `lampwalk tv`
DEFAULT_TV_TRUNCATION = 30

# below any reported tolerance, above the true tail bound (1/k divided by a
# set cardinality that is at least |box|^2 >= 2^90 from any built level on)
TAIL_LOSS = 1e-18


@dataclass
class SparsePMF:
    """Exact finitely supported distribution keyed by group elements."""

    probs: dict
    tolerance: float = 1e-12

    def __post_init__(self):
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > self.tolerance:
            raise ValueError(f"pmf sums to {total}, not 1")
        if any(p <= 0 for p in self.probs.values()):
            raise ValueError("pmf values must be positive")

    def __len__(self):
        return len(self.probs)

    def prob(self, g) -> float:
        return self.probs.get(g, 0.0)


def convolve(p: SparsePMF, q: SparsePMF) -> SparsePMF:
    predicted = len(p) * len(q)
    if predicted > DEFAULT_PMF_CAP:
        raise SizeCapError(
            f"convolution support may reach {predicted} (cap {DEFAULT_PMF_CAP})",
            predicted=predicted,
            cap=DEFAULT_PMF_CAP,
        )
    out: dict = {}
    for a, pa in p.probs.items():
        for b, qb in q.probs.items():
            ab = multiply(a, b)
            out[ab] = out.get(ab, 0.0) + pa * qb
    return SparsePMF(out)


def convolve_power(p: SparsePMF, n: int) -> SparsePMF:
    if n < 1:
        raise ValueError("n must be >= 1")
    out = p
    for _ in range(n - 1):
        out = convolve(out, p)
    return out


def translate(h: Element, p: SparsePMF) -> SparsePMF:
    return SparsePMF({multiply(h, g): w for g, w in p.probs.items()})


def tv(p: SparsePMF, q: SparsePMF) -> float:
    """Total variation as the full l1 norm; range [0, 2]."""
    keys = set(p.probs) | set(q.probs)
    return math.fsum(abs(p.prob(g) - q.prob(g)) for g in keys)


# -- exact marginal oracle (mini scale) -------------------------------------------


def exact_joint_pmf(c: Construction, kdist: KDistribution) -> SparsePMF:
    """The truncated step law as an explicit pmf (oracle scale only); a branch
    whose float mass underflows to 0.0 (red, from level 1061 on) is left out."""
    masses: dict = {}

    def add(g, w):
        if w:
            masses[g] = masses.get(g, 0.0) + w

    signs = c.signs
    sig = 1.0 / len(signs)
    for k in range(1, kdist.truncation + 1):
        level = c.level(k)
        box = level.oracle_box()
        pk = kdist.pmf(k)
        red_p = 2.0 ** -k
        for s in signs:
            add(level.red_increment(s), pk * red_p * sig)
        blue_w = pk * (1.0 - red_p) / (box.size() ** 2) * sig
        for f1 in box.iter_elements():
            for f2 in box.iter_elements():
                for s in signs:
                    add(level.blue_increment(f1, f2, s), blue_w)
    return SparsePMF(masses, tolerance=1e-9)


def exact_marginal(c: Construction, j: int, n: int, kdist: KDistribution) -> SparsePMF:
    """pr_j(nu)^(*n) by exact convolution of the marginalized step law."""
    joint = exact_joint_pmf(c, kdist)
    marg: dict = {}
    for g, w in joint.probs.items():
        comp = g.left if j == 1 else g.right
        marg[comp] = marg.get(comp, 0.0) + w
    return convolve_power(SparsePMF(marg, tolerance=1e-9), n)


# -- certified bound ------------------------------------------------------------------


@dataclass
class TVBoundReport:
    generator: str
    factor: int
    horizon: int
    truncation: int
    membership_level: int
    bound: float
    record_failure_term: float
    loss_term: float
    conditional_loss: float


def _ratio_float_up(num: int, den: int) -> float:
    """Upper bound of num/den in float, safe for gigantic denominators."""
    if num <= 0:
        return 0.0
    if den.bit_length() - num.bit_length() > 900:
        return TAIL_LOSS
    return min(2.0, (num / den) * (1.0 + 1e-12))


def _level_loss(c: Construction, h, h_cert, j: int, m: int, k: int) -> float:
    """Sound bound on 2(|h q1 F\\F| + |q1 F\\F|)/|F| at a level-k record.

    ``h_cert`` is ``certify([h])``, which the caller computes once per bound.
    """
    if is_identity(h):
        return 0.0  # h * kappa = kappa exactly
    if k > c.max_built:
        if c.schedule == "paper" and c.max_built >= 3:
            # every element of A^(k+1) loses < (1/k) / card(A^(k+1)) of the
            # level-k box, and from level 4 on that set holds at least
            # |F_3|^2 >= 2^(2 n_3) elements, dwarfing 1/TAIL_LOSS
            return TAIL_LOSS
        if c.schedule == "paper":
            return min(2.0, 4.0 / k)
        return 2.0  # mini boxes carry no invariance guarantee
    level = c.levels[k - 1]
    n = level.n
    if m == 1:
        return _ratio_float_up(2 * min(n, _loss_numer(h)), n)
    q_cert = certify_power(c.a_state(j, k).cert, m - 1)
    wa = worst_loss_numer(certify_product(h_cert, q_cert))
    wb = worst_loss_numer(q_cert)
    return _ratio_float_up(2 * (min(n, wa) + min(n, wb)), n)


def is_lamp_element(h) -> bool:
    return isinstance(h, LamplighterElement)


def certified_marginal_bound(
    c: Construction,
    h,
    n: int,
    j: int = 1,
    kdist: Optional[KDistribution] = None,
) -> TVBoundReport:
    """Deterministic upper bound on || h * pr_j(nu)^n - pr_j(nu)^n ||.

    The record-failure probability comes from exact dynamic programming over
    the running level maximum; the loss term sums first-good-record
    probabilities against per-level certified box losses.  With state[v] the
    probability of no good record yet and running maximum v, step m maps

        nxt[k] = state[k] P(K <= k) + below_k p_k (1 - eligible_k blue_k sigma)
        good  += below_k p_k blue_k sigma        (eligible k only)

    where below_k = sum_{v<k} state[v] is a running sum, so each step costs
    O(I).  A level-k record is good only at steps m <= k + 1, so from step
    I + 2 on no record is, and the chain only moves mass between running
    maxima: the DP stops at step min(n, I + 1), which costs O(min(n, I) I).
    ``loss_term`` is the same sum; ``record_failure_term`` is the same
    mass in exact arithmetic, and in floats differs from a DP over all n
    steps only by the rounding those steps would add: at most 6.6e-14
    relative at n = 1000 and I = 100, and the tests allow 1e-12.

    The bound reads ``c`` and never builds: levels past ``max_built`` take
    the schedule's tail loss, and memberships consult the built cores.  Build
    to ``_buildable_goal(c, I)`` first for the sharp bound the CLI reports.
    Without ``kdist`` the level law is truncated at ``DEFAULT_TV_TRUNCATION``,
    as in ``lampwalk tv``.  An ``h`` of another kind raises ``GroupMismatchError``.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if not is_lamp_element(h):
        raise GroupMismatchError(f"not a lamplighter element: {type(h).__name__}")
    kdist = kdist or KDistribution(DEFAULT_TV_TRUNCATION)
    trunc = kdist.truncation
    if trunc > 4096:
        raise OracleRangeError(f"truncation level {trunc} is past the record DP's cap of 4096")
    try:
        m_h = c.membership_level(j, h)
    except MembershipError as exc:
        raise MembershipError(
            f"{encode(h)} needs an absorbing level beyond this construction's "
            f"membership horizon: {exc}"
        ) from exc
    h_cert = certify([h])
    pmf, cum = kdist.pmf_vector(), kdist._cum  # cum[k - 1] = P(K <= k)
    sig = 1.0 / len(c.signs)

    # state[v] = P(no good record yet, running max = v); v = 0 means no draws.
    # A draw k > v is a strict record whatever v is, so every transition into
    # k from below factors through below = sum(state[v] for v < k).
    blue = [1.0 - 2.0 ** -k for k in range(trunc + 1)]
    state = [0.0] * (trunc + 1)
    state[0] = 1.0
    loss_total = 0.0
    good_total = 0.0
    for m in range(1, min(n, trunc + 1) + 1):
        nxt = [0.0] * (trunc + 1)  # nxt[0] stays 0: every step draws k >= 1
        below = state[0]
        for k in range(1, trunc + 1):
            pk = pmf[k - 1]
            if below != 0.0 and pk != 0.0:
                step = below * pk
                if k >= m_h and m <= k + 1:
                    good = step * blue[k] * sig
                    good_total += good
                    loss_total += good * _level_loss(c, h, h_cert, j, m, k)
                    nxt[k] = step * (1.0 - blue[k] * sig)
                else:
                    nxt[k] = step
            nxt[k] += state[k] * cum[k - 1]
            below += state[k]
        state = nxt
    failure = 2.0 * math.fsum(state)
    bound = min(2.0, failure + loss_total)
    cond = loss_total / good_total if good_total > 0 else 0.0
    return TVBoundReport(
        generator=encode(h),
        factor=j,
        horizon=n,
        truncation=trunc,
        membership_level=m_h,
        bound=bound,
        record_failure_term=failure,
        loss_term=loss_total,
        conditional_loss=cond,
    )


def _buildable_goal(c: Construction, trunc: int) -> int:
    """How deep to build before the bound: the truncation, capped at 64 levels
    on mini and at the paper schedule's desk-scale ceiling of 3."""
    if c.schedule == "mini":
        return min(trunc, 64)
    return min(trunc, 3)


TV_CURVE_COLUMNS = [
    "generator", "factor", "n", "certified_bound", "record_failure_term",
    "loss_term", "exact_tv",
]


def write_tv_curve(path, rows, manifest_digest: str = "") -> None:
    with open(path, "w", newline="") as fh:
        if manifest_digest:
            fh.write(f"# manifest {manifest_digest}\n")
        writer = csv.writer(fh)
        writer.writerow(TV_CURVE_COLUMNS)
        for report, exact in rows:
            writer.writerow(
                [
                    report.generator,
                    report.factor,
                    report.horizon,
                    f"{report.bound:.12g}",
                    f"{report.record_failure_term:.12g}",
                    f"{report.loss_term:.12g}",
                    "" if exact is None else f"{exact:.12g}",
                ]
            )
