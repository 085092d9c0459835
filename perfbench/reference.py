"""Reference values that the benchmark checks lampwalk's outputs against.

Seed-dependent outputs are checked against an independent re-derivation
written here from the definitions, not from lampwalk's code paths:

* the (k, y, sigma) stream of a walk, from the per-trajectory seed rule, the
  truncated k**-1.25 level law sampled by inversion, and the exact 2**-k
  colour rule (the order in which the sampler consumes its random stream is
  part of lampwalk's reproducibility contract);
* record, non-strict record and simple record times, the stable-so-far
  flags, dominant record times and the stabilization time.

Seed-independent outputs (construction digest, TV bounds, oracle rows,
verify verdicts, window sizes) are compared with ``golden.json``, recorded
at the commit that introduced the benchmark.  Regenerate it with
``python3 perfbench/record_golden.py`` only when a change is meant to move
those values, and say so.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from itertools import accumulate
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# TV bounds may move by rounding when the record DP is rewritten; anything
# beyond this is a changed answer, not rounding.
BOUND_RTOL = 1e-9
BOUND_ATOL = 1e-15
# a certified bound may undercut the exact oracle only by float noise
ORACLE_SLACK = 1e-9


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def trajectory_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"lampwalk:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


class LevelLaw:
    """Cumulative table of the truncated k**-exponent law on 1..truncation."""

    def __init__(self, truncation: int, exponent: float = 1.25):
        weights = [k ** -exponent for k in range(1, truncation + 1)]
        total = math.fsum(weights)
        self.cum = list(accumulate(w / total for w in weights))
        self.cum[-1] = 1.0


def stream(rng, horizon: int, law: LevelLaw, symmetric=False, x_level_cap=0, box_size=2):
    """(k, y, sigma) per step, consuming ``rng`` exactly as the sampler does.

    Steps with k <= x_level_cap materialize; a blue one then draws two box
    indices below ``box_size``.
    """
    out = []
    cum = law.cum
    for _ in range(horizon):
        k = bisect.bisect_right(cum, rng.random()) + 1
        bits, y = k, "red"
        while bits >= 64:
            if rng.getrandbits(64):
                y = "blue"
                break
            bits -= 64
        if y == "red" and bits and rng.getrandbits(bits):
            y = "blue"
        sigma = (1 if rng.getrandbits(1) else -1) if symmetric else 1
        if k <= x_level_cap and y == "blue":
            rng.randrange(box_size)
            rng.randrange(box_size)
        out.append((k, y, sigma))
    return out


def stream_digest(steps) -> str:
    h = hashlib.sha256()
    for k, y, sigma in steps:
        h.update(f"{k},{y},{sigma}\n".encode())
    return h.hexdigest()


def records(ks):
    """(record times, non-strict record times, simple record times)."""
    rec, non_strict, best = [], [], None
    for i, k in enumerate(ks, start=1):
        if best is None or k > best:
            rec.append(i)
            best = k
        if k == best:
            non_strict.append(i)
    # non-strict record values never decrease, so a record is simple exactly
    # when the next non-strict record after it (if any) is strictly higher
    nxt = {a: b for a, b in zip(non_strict, non_strict[1:])}
    simple = [i for i in rec if i not in nxt or ks[nxt[i] - 1] > ks[i - 1]]
    return rec, non_strict, simple


def dominant(ks):
    out, best, arg = [], None, 0
    for i, k in enumerate(ks, start=1):
        if best is None or k > best:
            best, arg = k, i
        out.append(arg)
    return out


def stable_flags(ks, ys):
    """Max of k_1..k_i attained once, above i, at a blue step."""
    flags, best, count, arg = [], None, 0, 0
    for i, k in enumerate(ks, start=1):
        if best is None or k > best:
            best, count, arg = k, 1, i
        elif k == best:
            count += 1
        flags.append(count == 1 and best > i and ys[arg - 1] == "blue")
    return flags


def stabilization(flags):
    """Last unstable index when the horizon is stable, else None."""
    if not flags[-1]:
        return None
    return max((i for i, ok in enumerate(flags, start=1) if not ok), default=0)


def walk_summary(ks, ys, dom, flags, i0, record_triple) -> dict:
    """What the paper-walks check compares for one walk."""
    checked = failed = 0
    if i0 is not None:
        for i in range(i0 + 1, len(ks)):
            checked += 1
            failed += not (dom[i] == dom[i - 1] or dom[i] == i + 1)
    return {
        "records": hashlib.sha256(repr(tuple(map(tuple, record_triple))).encode()).hexdigest(),
        "flags": hashlib.sha256(bytes(map(int, flags))).hexdigest(),
        "dominant": hashlib.sha256(repr(tuple(dom)).encode()).hexdigest(),
        "stabilization": i0,
        "transitions_checked": checked,
        "transitions_failed": failed,
    }


def reference_walk(seed: int, index: int, horizon: int, law: LevelLaw) -> dict:
    steps = stream(trajectory_rng(seed, index), horizon, law)
    ks = [s[0] for s in steps]
    ys = [s[1] for s in steps]
    flags = stable_flags(ks, ys)
    out = walk_summary(ks, ys, dominant(ks), flags, stabilization(flags), records(ks))
    out["stream"] = stream_digest(steps)
    return out


def bounds_match(got: float, want: float) -> bool:
    return abs(got - want) <= BOUND_ATOL + BOUND_RTOL * abs(want)


def element_json(text: str):
    """analysis.json's form of an encoded element: inline, or digest past 4096 chars."""
    if len(text) <= 4096:
        return text
    return {"digest": hashlib.sha256(text.encode()).hexdigest(), "encoded_length": len(text)}
