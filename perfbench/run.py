"""lampwalk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and uses the lampwalk sources under
``src/``.  Each round of a workload runs in its own fresh worker process
(``worker.py``) with its own artifact directory under ``.perfbench/``, which
is removed afterwards.  Rounds repeat until ``--seconds`` have passed; the
first round's outputs are checked against the reference (``reference.py``)
and every later round's outputs must equal the first round's.

``--trace 0`` prints the end-to-end metrics, medians over rounds:
``setup_s``, ``run_s`` and ``peak_rss_mb``.  ``--trace
1`` alternates untraced and traced rounds and prints the per-layer metrics
(medians over traced rounds) and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--size smoke`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-walks", "mini-pipeline", "mini-sym-verify")
SETUP_SAMPLES = 11
MIN_ROUNDS = 2          # two rounds give paper-walks 240 walks, 12 beyond p95
ROUND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics measured on untraced rounds; the rest come from the tracer
UNTRACED_LAYER = {
    "sampling.steps_per_s": "1/s",
    "sampling.walk_ms_p50": "ms",
    "sampling.walk_ms_p95": "ms",
    "cli.build_s": "s",
    "cli.sample_s": "s",
    "cli.analyze_s": "s",
    "cli.tv_s": "s",
    "cli.tv_oracle_s": "s",
    "cli.verify_s": "s",
    "cli.artifact_mb": "MB",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def layer_unit(name: str) -> str:
    if name in UNTRACED_LAYER:
        return UNTRACED_LAYER[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_frac", ".distinct")):
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


class Bench:
    def __init__(self, workload, seed, size):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.rounds = 0

    def round(self, mode="run", trace=False, check=False, record=False, trace_out=None) -> dict:
        self.rounds += 1
        workdir = self.scratch / f"round-{self.rounds}"
        workdir.mkdir(parents=True)
        spec = {
            "root": str(ROOT), "workload": self.workload, "seed": self.seed, "size": self.size,
            "workdir": str(workdir), "mode": mode, "trace": trace, "check": check,
            "record": record, "trace_out": trace_out and str(trace_out),
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} round failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass


def count_failures(rounds):
    """(attempted, failed): the first round is checked, the rest must match it."""
    checked = rounds[0]
    expected = dict((op, fp) for op, fp in checked["fingerprints"])
    attempted = failed = 0
    for r in rounds:
        attempted += len(r["fingerprints"])
        if r is checked:
            failed += len(set(r["failed"]))
        else:
            failed += sum(1 for op, fp in r["fingerprints"] if expected.get(op) != fp)
    return attempted, failed


def p95(values):
    """95th percentile, interpolated within the sample (no extrapolation past the max)."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1] if len(values) > 1 else values[0]


def end_to_end(bench, seconds):
    start = perf_counter()
    rounds = [bench.round(check=True)]
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        rounds.append(bench.round())
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.round(mode="setup")["setup_s"])
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "run_s": med(r["run_s"] for r in rounds),
        "peak_rss_mb": med(r["rss_mb"] for r in rounds),
    }
    notes = {"rounds": len(rounds), "setup_samples": len(setups)}
    return rounds, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def untraced_layer(workload, rounds) -> dict:
    """Per-layer figures that must not carry tracing overhead."""
    med = statistics.median
    out = {name: 0.0 for name in UNTRACED_LAYER}
    extra = [r["extra"] for r in rounds]
    if workload == "paper-walks":
        out["sampling.steps_per_s"] = med(e["steps"] / sum(e["walk_s"]) for e in extra)
        walk_s = [s for e in extra for s in e["walk_s"]]
        out["sampling.walk_ms_p50"] = 1000 * med(walk_s)
        out["sampling.walk_ms_p95"] = 1000 * p95(walk_s)
    if workload == "mini-pipeline":
        out["sampling.steps_per_s"] = med(e["steps"] / e["stage_s"]["sample"] for e in extra)
        for stage in ("build", "sample", "analyze", "tv", "tv_oracle", "verify"):
            out[f"cli.{stage}_s"] = med(e["stage_s"][stage] for e in extra)
        out["cli.artifact_mb"] = med(e["artifact_bytes"] for e in extra) / 1e6
    return out


def per_layer(bench, seconds, trace_out):
    start = perf_counter()
    plain = [bench.round(check=True)]
    traced = []
    while not traced or perf_counter() - start < seconds:
        if len(traced) < len(plain):
            traced.append(bench.round(trace=True, trace_out=trace_out))
        else:
            plain.append(bench.round())
    metrics = {}
    for name in traced[0]["per_layer"]:
        metrics[name] = statistics.median(r["per_layer"][name] for r in traced)
    metrics.update(untraced_layer(bench.workload, plain))
    metrics["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
    metrics["trace.untraced_run_s"] = statistics.median(r["run_s"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    notes = {"untraced_rounds": len(plain), "traced_rounds": len(traced), "spans_file": str(trace_out)}
    return plain + traced, {k: (v, layer_unit(k)) for k, v in metrics.items()}, notes


def provenance(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    # a terminated benchmark still kills and reaps its worker (subprocess.run does on exit)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lampwalk" / "__init__.py").is_file():
        print(f"error: no lampwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.size)
    try:
        if args.trace:
            trace_out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            rounds, metrics, notes = per_layer(bench, args.seconds, trace_out)
        else:
            rounds, metrics, notes = end_to_end(bench, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    attempted, failed = count_failures(rounds)
    print("# provenance " + json.dumps({**provenance(args), **notes}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    if rounds[0]["failed"]:
        print("# failed in the checked round: " + ", ".join(sorted(set(rounds[0]["failed"]))[:20]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
