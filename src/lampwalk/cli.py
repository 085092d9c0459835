"""Reproducible batch front-end.

Subcommands: build, sample, analyze, tv, verify, verify-switcher, inspect.
build, sample, analyze and tv stamp the digest of a run manifest into each
output file; identical manifests produce byte-identical outputs.  build and
sample also write the manifest, with a wall-clock timestamp only under
--stamp, which the digest leaves out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .analysis import is_lamp_pair, trajectory_report, write_analysis_json
from .construction import MINI_BOX_MAX, Config, Construction
from .errors import LampwalkError
from .groups import decode, encode, lamplighter_group
from .sampling import (
    KDistribution,
    read_trajectory_csv,
    walk,
    write_trajectory_csv,
)
from .setalg import read_set
from .switchers import is_superswitcher, is_switcher
from .tvbound import (
    DEFAULT_TV_TRUNCATION,
    _buildable_goal,
    certified_marginal_bound,
    exact_marginal,
    is_lamp_element,
    translate,
    tv,
    write_tv_curve,
)
from .verify import run_verification_suite

DEFAULT_GENERATORS = ["0|0", "1|", "-1|"]


def trajectory_rng(master_seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"lampwalk:{master_seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass
class Manifest:
    command: list
    config: dict
    construction_digest: str = ""
    version: str = __version__

    def _payload(self) -> dict:
        """The fields the digest covers; the file adds the timestamp and digest."""
        return {
            "command": self.command,
            "config": self.config,
            "construction": self.construction_digest,
            "version": self.version,
        }

    def digest(self) -> str:
        payload = json.dumps(self._payload(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def write(self, path, stamp: bool) -> str:
        digest = self.digest()
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()) if stamp else ""
        payload = {**self._payload(), "timestamp": timestamp, "digest": digest}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return digest


def _effective_config(args) -> dict:
    """Every setting in effect, as text, keyed by its flag or argument name.

    The dispatch function and the argv copy are no settings, and --stamp asks
    for a timestamp that the digest leaves out.
    """
    return {
        key.replace("_", "-"): str(val)
        for key, val in vars(args).items()
        if key not in ("func", "argv", "stamp") and val is not None
    }


def _manifest(args, construction_digest="") -> Manifest:
    return Manifest(args.argv, _effective_config(args), construction_digest)


def _int_or_none(text):
    if text is None or text == "none":
        return None
    return int(text)


def _int_at_least(low: int):
    """An argparse type for ints >= ``low``; a bad value exits 2 with an error line."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _cap_text(text: str) -> str:
    """A non-negative int or 'none', kept as given: manifests record the text."""
    if text != "none":
        _non_negative(text)
    return text


def _horizons(text: str) -> list:
    """A comma-separated list of positive ints."""
    return [_positive(t) for t in text.split(",")]


# -- subcommands --------------------------------------------------------------


def cmd_build(args) -> int:
    cfg = Config(mini_box_cap=args.mini_box_cap, brute_verify=not args.no_brute_verify)
    c = Construction(mode=args.mode, schedule=args.schedule, config=cfg)
    for i in range(1, args.max_level + 1):
        _print_level(c, c.build_level(i))
    out = Path(args.out)
    construction_digest = c.save(out)
    manifest = _manifest(args, construction_digest)
    digest = manifest.write(out.with_suffix(out.suffix + ".manifest.json"), args.stamp)
    print(f"saved {out} (construction {construction_digest[:12]}, manifest {digest[:12]})")
    return 0


def _print_level(c: Construction, level) -> None:
    """One level as ``build`` and ``inspect`` print it: box, Folner status and
    ratio, then per factor A(j,i)'s core, exactness and radii, and b1, b2, c."""
    ratio = level.folner_ratio
    print(
        f"level {level.index}: box n={_short_int_text(level.n)}"
        f" folner={'certified' if level.folner_certified else 'recorded'}"
        f" ratio={'n/a' if ratio is None else f'{float(ratio):.6g}'}"
    )
    for j in (1, 2):
        fl, st = level.factor(j), c.a_state(j, level.index)
        print(
            f"  factor {j}: core={st.core_len} exact={'yes' if st.exact else 'no'}"
            f" cert=({_short_int_text(st.cert.cursor_radius)},"
            f"{_short_int_text(st.cert.lamp_radius)})"
            f" b1={_element_text(fl.b1)} b2={_element_text(fl.b2)} c={_element_text(fl.c)}"
        )


def _short_int_text(n: int) -> str:
    """An integer in decimal up to 64 bits, past that as ~2^(bit length - 1), signed."""
    return str(n) if n.bit_length() <= 64 else f"~{'-' if n < 0 else ''}2^{n.bit_length() - 1}"


def _element_text(g) -> str:
    return f"{_short_int_text(g.cursor)}|{','.join(map(_short_int_text, g.lamps))}"


def cmd_sample(args) -> int:
    c = Construction.load(args.construction)
    kdist = KDistribution(truncation=args.truncation_level)
    cap = _int_or_none(args.x_level_cap)
    # walks read every level they materialize, up to the cap or the truncation
    c.build_to(args.truncation_level if cap is None else min(cap, args.truncation_level))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _manifest(args, c.file_digest).write(out_dir / "manifest.json", args.stamp)
    for idx in range(args.n_traj):
        rng = trajectory_rng(args.seed, idx)
        traj = walk(c, args.horizon, rng, kdist=kdist, x_level_cap=cap)
        write_trajectory_csv(out_dir / f"trajectory-{idx:04d}.csv", traj, digest)
    print(f"wrote {args.n_traj} trajectories to {out_dir} (manifest {digest[:12]})")
    return 0


def cmd_analyze(args) -> int:
    texts = _split_elements(args.freeness)
    if texts and not args.construction:
        raise LampwalkError("--freeness needs --construction: its membership levels gate a verdict")
    freeness = _decode_each(texts, "--freeness", "a pair of lamplighter elements", is_lamp_pair)
    c = Construction.load(args.construction) if args.construction else None
    reports = []
    for path in args.trajectories:
        traj = read_trajectory_csv(path)
        reports.append(trajectory_report(traj, c, freeness))
    out = Path(args.out)
    write_analysis_json(out, reports, _manifest(args, c.file_digest if c else "").digest())
    stabilized = sum(1 for r in reports if r["stabilization_time"] is not None)
    print(f"analyzed {len(reports)} trajectories ({stabilized} stabilized) -> {out}")
    return 0


def _split_elements(items) -> list:
    """Flatten space-separated encodings (lets '-1|' ride inside one token)."""
    out = []
    for item in items or []:
        out.extend(item.split())
    return out


def _decode_each(texts, flag: str, what: str, accepts) -> list:
    """Decode each encoding, refusing one that ``accepts`` rejects."""
    out = []
    for text in texts:
        g = decode(text)
        if not accepts(g):
            raise LampwalkError(f"{flag} element {text!r} is not {what}")
        out.append(g)
    return out


def cmd_tv(args) -> int:
    gens = _decode_each(_split_elements(args.generators) or DEFAULT_GENERATORS, "--generators",
                        "a lamplighter element", is_lamp_element)
    c = Construction.load(args.construction)
    kdist = KDistribution(truncation=args.truncation_level)
    grid = args.n_grid
    oracle_grid = [n for n in grid if args.oracle and n <= args.oracle_n_cap]
    # the oracle reads every level up to the truncation; the bound, its goal
    c.build_to(args.truncation_level if oracle_grid else _buildable_goal(c, args.truncation_level))
    # the exact marginal depends on n alone, not on the generator
    marginals = {n: exact_marginal(c, args.factor, n, kdist) for n in oracle_grid}
    rows = []
    for h in gens:
        for n in grid:
            report = certified_marginal_bound(c, h, n, j=args.factor, kdist=kdist)
            marginal = marginals.get(n)
            exact = None if marginal is None else tv(translate(h, marginal), marginal)
            rows.append((report, exact))
    out = Path(args.out)
    write_tv_curve(out, rows, _manifest(args, c.file_digest).digest())
    for report, exact in rows:
        extra = "" if exact is None else f" exact={exact:.6g}"
        print(
            f"{report.generator} n={report.horizon}: bound={report.bound:.6g} "
            f"(failure={report.record_failure_term:.6g}, loss={report.loss_term:.6g})"
            + extra
        )
    return 0


def cmd_verify(args) -> int:
    c = Construction.load(args.construction)
    results = run_verification_suite(c)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_verify_switcher(args) -> int:
    group = lamplighter_group()
    a = read_set(args.set_file, group)
    b = decode(args.candidate)
    check = is_superswitcher if args.super else is_switcher
    report = check(b, a)
    payload = {
        "candidate": encode(report.candidate),
        "kind": report.kind,
        "passed": report.passed,
        "mode": report.mode,
        "verified_against": report.verified_against,
        "witness": None if report.witness is None else _witness_json(report.witness),
        "reason": report.reason,
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0 if report.passed else 1


def _witness_json(part):
    """A switcher witness as JSON: elements encoded, signs kept as ints.

    Elements are tuples themselves, so only a plain tuple is structure.
    """
    if type(part) is tuple:
        return [_witness_json(p) for p in part]
    return part if isinstance(part, int) else encode(part)


def cmd_inspect(args) -> int:
    c = Construction.load(args.construction)
    print(f"mode: {c.mode}")
    print(f"schedule: {c.schedule}")
    print(f"levels built: {c.max_built}")
    print(f"digest: {c.file_digest}")
    for level in c.levels:
        _print_level(c, level)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lampwalk",
        description="Coupled lamplighter walks: build, simulate, verify, bound.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("build", help="build and save a construction")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--stamp", action="store_true", help="timestamp the manifest file")
    p.add_argument("--mode", choices=["asymmetric", "symmetric"], default="asymmetric")
    p.add_argument("--schedule", choices=["paper", "mini"], default="mini")
    p.add_argument("--max-level", type=_positive, default=2)
    p.add_argument("--mini-box-cap", type=int, choices=range(1, MINI_BOX_MAX + 1), default=2,
                   help="window-size ceiling for mini boxes (1 keeps oracles tiny)")
    p.add_argument("--no-brute-verify", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sample", help="simulate coupled trajectories")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--stamp", action="store_true", help="timestamp the manifest file")
    p.add_argument("--out-dir", default="out", help="directory for the trajectory files")
    p.add_argument("construction")
    p.add_argument("--n-traj", type=_non_negative, default=10)
    p.add_argument("--horizon", type=_positive, default=1000)
    p.add_argument("--truncation-level", type=_positive, default=1_000_000)
    p.add_argument("--x-level-cap", type=_cap_text, default="0",
                   help="materialize increments up to this level; 'none' = all")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="records, stabilization, tails, freeness")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("trajectories", nargs="+")
    p.add_argument("--construction")
    p.add_argument("--freeness", nargs="*", help="encoded product elements to test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tv", help="certified marginal total-variation bounds")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("construction")
    p.add_argument("--generators", nargs="*",
                   help="encoded lamplighter elements; space-separate inside "
                        "one quoted argument to pass encodings starting with '-'")
    p.add_argument("--factor", type=int, choices=[1, 2], default=1)
    p.add_argument("--n-grid", type=_horizons, default="10,100,1000",
                   help="comma-separated horizons n")
    p.add_argument("--truncation-level", type=_positive, default=DEFAULT_TV_TRUNCATION)
    p.add_argument("--oracle", action="store_true", help="add exact TV where feasible")
    p.add_argument("--oracle-n-cap", type=_non_negative, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("verify", help="run the verification suite on a construction")
    p.add_argument("construction")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-switcher", help="check one candidate against a set file")
    p.add_argument("set_file")
    p.add_argument("candidate")
    p.add_argument("--super", action="store_true", help="check the symmetric clauses too")
    p.set_defaults(func=cmd_verify_switcher)

    p = sub.add_parser("inspect", help="summarize a construction file")
    p.add_argument("construction")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # manifests record the arguments of this run, not the host's, and leave
    # out --stamp as the digest leaves out the timestamp
    args.argv = [a for a in argv if a != "--stamp"]
    try:
        return args.func(args)
    except (LampwalkError, OSError) as exc:  # an OSError names the path it could not use
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
