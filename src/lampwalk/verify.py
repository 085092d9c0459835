"""Verification suite over a saved construction.

Each check returns (name, passed, detail).  The suite re-derives everything
it can at the loaded construction's scale: deterministic rebuild, brute
switcher scans against materialized requirement sets, window decomposition
uniqueness and disjointness, step-law symmetry, and invariance ratios.
A failure anywhere is meant to flip the process exit status.
"""

from __future__ import annotations

import math

from .analysis import WindowOracle
from .construction import BRUTE_LEVEL_CAP, Construction, folner_delta
from .errors import LampwalkError, OracleRangeError
from .groups import encode, inverse
from .sampling import KDistribution, pmf_eval
from .setalg import BRUTE_BOX_CAP
from .tvbound import exact_joint_pmf

PMF_REL_TOL = 1e-12


def run_verification_suite(c: Construction) -> list:
    # shared by both window checks, so each (level, prime) index is built once
    oracle = WindowOracle(c)
    checks = [
        (_check_rebuild, c),
        (_check_core_nesting, c),
        (_check_switchers, c),
        (_check_decompositions, oracle),
        (_check_disjointness, oracle),
        (_check_folner, c),
        (_check_pmf_symmetry, c),
    ]
    results = []
    for check, arg in checks:
        try:
            results.extend(check(arg))
        except LampwalkError as exc:
            # hyphenated as the checks name their rows: pmf_symmetry -> pmf-symmetry
            name = check.__name__.removeprefix("_check_").replace("_", "-")
            results.append((name, False, str(exc)))
    return results


def _check_rebuild(c: Construction):
    # a loaded construction was itself rebuilt from its recipe, so its digest
    # is held to the one its file records; one built in process is held to
    # a fresh rebuild.  A rebuild that raises fails the row with its reason.
    try:
        if c.file_digest:
            ok = c.digest() == c.file_digest
        else:
            fresh = Construction(mode=c.mode, schedule=c.schedule, config=c.config)
            fresh.build_to(c.max_built)
            ok = fresh.digest() == c.digest()
    except LampwalkError as exc:
        return [("deterministic-rebuild", False, f"rebuild failed: {exc}")]
    return [(
        "deterministic-rebuild",
        ok,
        "rebuild reproduces the recorded digest" if ok else "rebuild diverges",
    )]


def _check_core_nesting(c: Construction):
    """The A cores are prefixes of one append-only list without repeats, so
    they nest exactly when ``core_len`` never decreases, and nested cores
    are all closed under inverse exactly when each level's added segment is
    (the list starts at the identity, its own inverse).  Neither row copies
    a core."""
    out = []
    levels = range(1, c.max_built + 1)
    for j in (1, 2):
        lens = [c.a_state(j, i).core_len for i in levels]
        nested = all(a <= b for a, b in zip(lens, lens[1:]))
        out.append((
            f"core-nesting-j{j}", nested,
            "A cores grow monotonically" if nested else "a core lost elements",
        ))
        if c.mode == "symmetric":
            segments = (set(c.a_core_added(j, i)) for i in levels)
            sym = all({inverse(g) for g in seg} == seg for seg in segments)
            out.append((
                f"core-symmetry-j{j}", sym,
                "cores closed under inverse" if sym else "a core is not symmetric",
            ))
    return out


def _check_switchers(c: Construction):
    out = []
    for i in range(1, min(c.max_built, BRUTE_LEVEL_CAP) + 1):
        level = c.levels[i - 1]
        if not level.box().fits(BRUTE_BOX_CAP):
            out.append((f"switcher-brute-L{i}", True, "box too large; certificate mode"))
            continue
        for name, req, rep in c.switcher_scans(level):
            out.append((
                name, rep.passed,
                f"brute scan over {_scanned(len(req), rep)}"
                + ("" if rep.passed else f"; witness {rep.witness}"),
            ))
    return out


def _scanned(n: int, rep) -> str:
    """What a brute scan of rep's kind covers on a set of n elements: the
    pairs (a1, a2), or the triples (a1, s, a2), one sign when b = b^-1."""
    if rep.kind == "switcher":
        return f"{n}^2 pairs"
    if rep.candidate == inverse(rep.candidate):
        return f"{n}^2 triples (b = b^-1)"
    return f"2*{n}^2 triples"


def _window_levels(c: Construction):
    for i in (1, 2):
        if i > c.max_built:
            return
        if not all(c.a_state(j, i).exact for j in (1, 2)):
            return
        yield i


def _check_decompositions(oracle: WindowOracle):
    out = []
    for i in _window_levels(oracle.construction):
        try:
            index = oracle.index(i)
        except OracleRangeError as exc:
            out.append((f"decomposition-unique-L{i}", True, f"skipped: {exc}"))
            continue
        ok, witnesses = index.certify_unique()
        out.append((
            f"decomposition-unique-L{i}", ok,
            "every window form decomposes uniquely"
            if ok else f"multiple decompositions: {witnesses[:1]}",
        ))
    return out


def _check_disjointness(oracle: WindowOracle):
    out = []
    levels = list(_window_levels(oracle.construction))
    if len(levels) < 2:
        return out
    try:
        w1 = oracle.index(1)
        w2 = oracle.index(2)
    except OracleRangeError as exc:
        return [("window-disjoint-L1L2", True, f"skipped: {exc}")]
    overlap = [g for g in w1.iter_elements() if g in w2]
    out.append((
        "window-disjoint-L1L2", not overlap,
        "level-1 and level-2 window forms are disjoint"
        if not overlap else f"shared element {encode(overlap[0])}",
    ))
    return out


def _check_folner(c: Construction):
    out = []
    for level in c.levels:
        ratio = level.folner_ratio
        if ratio is None:
            out.append((
                f"folner-L{level.index}", True,
                "certified by the subadditive bound (set not materializable)"
                if level.folner_certified else "box recorded without a ratio",
            ))
            continue
        if level.folner_certified:
            delta = folner_delta(level.index)
            out.append((
                f"folner-L{level.index}", ratio < delta,
                f"exact ratio {float(ratio):.6g} vs delta {float(delta):.6g}",
            ))
        else:
            out.append((
                f"folner-L{level.index}", True,
                f"achieved ratio {float(ratio):.6g} (recorded, not enforced)",
            ))
    return out


def _check_pmf_symmetry(c: Construction):
    """Parse-based nu (pmf_eval) against the forward law (exact_joint_pmf).

    pmf_eval averages the parse mass of g and g^-1, so comparing it with
    itself at g^-1 could not fail; as 0.5 * (a + b) is the same float as
    0.5 * (b + a), it is evaluated once per inverse pair and held to the
    forward law at both.  exact_joint_pmf instead enumerates the sampler's
    branches forward; both sums run over the same terms in other orders, so
    they agree to rounding, hence the relative tolerance.  The row also
    checks that the support is closed under inverse, so that g^-1 is
    compared in its own turn.  Each parse solves factor 1's component for
    f2, one candidate per box draw f1, and a second parse of one g fails the
    row as a switcher breach.
    """
    if c.mode != "symmetric" or c.schedule != "mini" or c.max_built < 1:
        return []
    trunc = min(c.max_built, 2)
    kdist = KDistribution(truncation=trunc)
    try:
        forward = exact_joint_pmf(c, kdist)
    except OracleRangeError as exc:
        return [("pmf-symmetry", True, f"skipped: {exc}")]
    support = sorted(forward.probs, key=encode)
    unpaired = [g for g in support if inverse(g) not in forward.probs]
    nu = {}  # nu(g) = nu(g^-1): one evaluation per inverse pair
    for g in support:
        if g not in nu:
            nu[g] = nu[inverse(g)] = pmf_eval(c, g, kdist)
    bad = [g for g in support if not math.isclose(nu[g], forward.prob(g), rel_tol=PMF_REL_TOL)]
    if unpaired:
        detail = f"the support misses the inverse of {encode(unpaired[0])}"
    elif bad:
        detail = f"parsed and forward law disagree at {encode(bad[0])}"
    else:
        detail = (f"parsed nu(g) matches the forward law on all {len(support)} support "
                  f"elements, a set closed under inverse (rel tol {PMF_REL_TOL:g})")
    return [("pmf-symmetry", not (unpaired or bad), detail)]
