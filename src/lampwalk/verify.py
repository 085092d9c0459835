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
from .construction import Construction
from .errors import LampwalkError, OracleRangeError
from .groups import encode, inverse
from .sampling import KDistribution, pmf_eval, support_enumeration
from .setalg import explicit, power_set, symmetrize
from .switchers import is_superswitcher, is_switcher
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
            results.append((check.__name__.removeprefix("_check_"), False, str(exc)))
    return results


def _check_rebuild(c: Construction):
    fresh = Construction(mode=c.mode, schedule=c.schedule, config=c.config)
    try:
        fresh.build_to(c.max_built)
    except LampwalkError as exc:
        return [("deterministic-rebuild", False, f"rebuild failed: {exc}")]
    ok = fresh.serialize() == c.serialize()
    return [(
        "deterministic-rebuild",
        ok,
        "rebuild reproduces the file byte for byte" if ok else "rebuild diverges",
    )]


def _check_core_nesting(c: Construction):
    out = []
    for j in (1, 2):
        cores = [set(c.a_core(j, i)) for i in range(1, c.max_built + 1)]
        nested = all(a <= b for a, b in zip(cores, cores[1:]))
        out.append((
            f"core-nesting-j{j}", nested,
            "A cores grow monotonically" if nested else "a core lost elements",
        ))
        if c.mode == "symmetric":
            sym = all({inverse(g) for g in core} == core for core in cores)
            out.append((
                f"core-symmetry-j{j}", sym,
                "cores closed under inverse" if sym else "a core is not symmetric",
            ))
    return out


def _check_switchers(c: Construction):
    out = []
    cfg = c.config
    sym = c.mode == "symmetric"
    for i in range(1, min(c.max_built, cfg.brute_level_cap) + 1):
        level = c.levels[i - 1]
        box = level.box()
        if box.n.bit_length() > 16 or box.size() > 512:
            out.append((f"switcher-brute-L{i}", True, "box too large; certificate mode"))
            continue
        fbox = box.as_explicit(c.factor_group, cfg.size_cap)
        if sym:
            fbox = symmetrize(fbox)
        for j in (1, 2):
            fl = level.factor(j)
            base = explicit(c.factor_group, set(c.a_core(j, i)) | fbox.elements)
            step3 = power_set(base, cfg.brute_power, size_cap=cfg.size_cap)
            check = is_superswitcher if sym else is_switcher
            rep = check(fl.b1, step3)
            out.append((
                f"switcher-inner-L{i}j{j}", rep.passed,
                f"brute scan over {len(step3)}^2 pairs"
                + ("" if rep.passed else f"; witness {rep.witness}"),
            ))
            extra = {fl.b1, inverse(fl.b1)} if sym else {fl.b1}
            step4 = power_set(
                explicit(c.factor_group, base.elements | extra),
                cfg.brute_power, size_cap=cfg.size_cap,
            )
            rep = check(fl.b2, step4)
            out.append((
                f"switcher-outer-L{i}j{j}", rep.passed,
                f"brute scan over {len(step4)}^2 pairs"
                + ("" if rep.passed else f"; witness {rep.witness}"),
            ))
    return out


def _window_levels(c: Construction):
    for i in (1, 2):
        if i > c.max_built:
            return
        if not all(c.levels[i - 1].factor(j).a_exact for j in (1, 2)):
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
    w1 = oracle.index(1)
    w2 = oracle.index(2)
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
        prof_delta = c.profile.delta(level.index)
        if ratio is None:
            out.append((
                f"folner-L{level.index}", True,
                "certified by the subadditive bound (set not materializable)"
                if level.folner_certified else "box recorded without a ratio",
            ))
            continue
        if level.folner_certified and prof_delta is not None:
            ok = ratio < prof_delta
            out.append((
                f"folner-L{level.index}", ok,
                f"exact ratio {float(ratio):.6g} vs delta {float(prof_delta):.6g}",
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
    itself at g^-1 could not fail.  exact_joint_pmf instead enumerates the
    sampler's branches forward; both sums run over the same terms in other
    orders, so they agree to rounding, hence the relative tolerance.  The
    support is closed under inverse, so g^-1 is compared in its own turn.
    """
    if c.mode != "symmetric" or c.schedule != "mini" or c.max_built < 1:
        return []
    trunc = min(c.max_built, 2)
    kdist = KDistribution(truncation=trunc)
    try:
        support = support_enumeration(c, kdist)
    except OracleRangeError as exc:
        return [("pmf-symmetry", True, f"skipped: {exc}")]
    forward = exact_joint_pmf(c, kdist)
    bad = [
        g for g in support
        if not math.isclose(pmf_eval(c, g, kdist), forward.prob(g), rel_tol=PMF_REL_TOL)
    ]
    return [(
        "pmf-symmetry", not bad,
        f"parsed nu(g) matches the forward law on all {len(support)} support elements, "
        f"a set closed under inverse (rel tol {PMF_REL_TOL:g})"
        if not bad else f"parsed and forward law disagree at {encode(bad[0])}",
    )]
