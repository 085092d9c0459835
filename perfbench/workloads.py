"""The three benchmark workloads.

Each workload runs inside one fresh worker process (see ``worker.py``):

* ``imports()`` and ``prepare()`` are the set-up that the timed phase reuses;
* ``run()`` is the timed phase;
* ``fingerprints()`` gives one (operation, fingerprint) pair per checked
  operation, so later rounds of a run can be compared with the checked one;
* ``check(golden)`` compares the outputs with reference values and returns
  the names of the operations that failed;
* ``observed()`` gives the seed-independent values kept in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import reference as ref

SIZES = {
    "paper-walks": {
        "full": {"walks": 120, "horizon": 10_000, "levels": 3, "truncation": 10**6},
        "smoke": {"walks": 3, "horizon": 300, "levels": 3, "truncation": 10**4},
    },
    "mini-pipeline": {
        "full": {
            "max_level": 600, "n_traj": 400, "horizon": 5, "truncation": 10**6,
            "x_level_cap": 2000, "n_grid": "10,100,1000", "tv_truncation": 100,
        },
        "smoke": {
            "max_level": 3, "n_traj": 2, "horizon": 12, "truncation": 1000,
            "x_level_cap": 20, "n_grid": "10", "tv_truncation": 10,
        },
    },
    "mini-sym-verify": {
        "full": {"levels": 2},
        "smoke": {"levels": 1},
    },
}


def _sha(text) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.params = SIZES[self.name][size]
        self.workdir = workdir
        self.untimed_s = 0.0    # bookkeeping inside run() that run_s leaves out
        self.extra = {}         # measurements beyond run_s

    def imports(self):
        raise NotImplementedError

    def prepare(self):
        pass

    def golden(self, golden: dict) -> dict:
        return golden[self.name][self.size]


# -- paper-walks -----------------------------------------------------------------


class PaperWalks(Workload):
    """Metadata-only walks of the paper schedule plus their record analytics."""

    name = "paper-walks"

    def imports(self):
        from lampwalk import analysis, cli, construction, sampling

        self.lw = (analysis, cli, construction, sampling)

    def prepare(self):
        _, _, construction, sampling = self.lw
        self.c = construction.Construction("asymmetric", "paper")
        self.c.build_to(self.params["levels"])
        self.kdist = sampling.KDistribution(truncation=self.params["truncation"])

    def run(self, tracer=None):
        analysis, cli, _, sampling = self.lw
        p = self.params
        self.summaries = []
        walk_s = []
        for i in range(p["walks"]):
            t0 = perf_counter()
            traj = sampling.walk(
                self.c, p["horizon"], cli.trajectory_rng(self.seed, i),
                kdist=self.kdist, x_level_cap=0,
            )
            t1 = perf_counter()
            report = analysis.analyze_records(traj.ks())
            flags = analysis.stable_so_far_flags(traj)
            dom = analysis.dominant_record_times(traj)
            i0 = analysis.detect_stabilization(traj)
            t2 = perf_counter()
            walk_s.append(t1 - t0)
            self.summaries.append(summarize_walk(traj, report, flags, dom, i0))
            self.untimed_s += perf_counter() - t2
        self.extra = {"walk_s": walk_s, "steps": p["walks"] * p["horizon"]}

    def fingerprints(self):
        return [(f"walk-{i}", json.dumps(s, sort_keys=True)) for i, s in enumerate(self.summaries)]

    def check(self, golden):
        law = ref.LevelLaw(self.params["truncation"])
        return [
            f"walk-{i}"
            for i, got in enumerate(self.summaries)
            if got != ref.reference_walk(self.seed, i, self.params["horizon"], law)
        ]

    def observed(self):
        return {}


def summarize_walk(traj, report, flags, dom, i0) -> dict:
    """The checked outputs of one walk: its stream digest and its analytics."""
    steps = [(s.k, s.y, s.sigma) for s in traj.steps]
    out = ref.walk_summary(
        [s[0] for s in steps], [s[1] for s in steps], dom, flags, i0,
        (report.record_times, report.non_strict_record_times, report.simple_record_times),
    )
    out["stream"] = ref.stream_digest(steps)
    return out


# -- mini-pipeline ------------------------------------------------------------------

FREENESS = ["(0|0;0|)", "(1|;1|)"]      # (a, e) and (s, s): both nontrivial
GENERATORS = "0|0 1| -1|"                # one token: argparse reads '-1|' as a flag
IDENTITY = "(0|;0|)"                     # z_0, the encoded product identity


class MiniPipeline(Workload):
    """The build, sample, analyze, tv, tv --oracle, verify CLI pipeline."""

    name = "mini-pipeline"
    STAGES = ("build", "sample", "analyze", "tv", "tv_oracle", "verify")

    def imports(self):
        from lampwalk import cli

        self.cli = cli

    def stage_argv(self, stage):
        p = self.params
        if stage == "build":
            return ["build", "--schedule", "mini", "--mode", "asymmetric", "--mini-box-cap", "1",
                    "--max-level", str(p["max_level"]), "--out", "mini.lwc"]
        if stage == "sample":
            return ["sample", "mini.lwc", "--seed", str(self.seed), "--n-traj", str(p["n_traj"]),
                    "--horizon", str(p["horizon"]), "--truncation-level", str(p["truncation"]),
                    "--x-level-cap", str(p["x_level_cap"]), "--out-dir", "runs"]
        if stage == "analyze":
            trajs = [f"runs/trajectory-{i:04d}.csv" for i in range(p["n_traj"])]
            return ["analyze", *trajs, "--construction", "mini.lwc", "--seed", str(self.seed),
                    "--freeness", *FREENESS, "--out", "analysis.json"]
        if stage == "tv":
            return ["tv", "mini.lwc", "--generators", GENERATORS, "--n-grid", p["n_grid"],
                    "--truncation-level", str(p["tv_truncation"]), "--out", "tv.csv"]
        if stage == "tv_oracle":
            # box cap 1 keeps exact_marginal under its support cap
            return ["tv", "mini.lwc", "--generators", GENERATORS, "--n-grid", "2,4",
                    "--truncation-level", "2", "--oracle", "--out", "tv-oracle.csv"]
        return ["verify", "mini.lwc"]

    def run(self, tracer=None):
        os.chdir(self.workdir)
        self.rc, self.stdout, stage_s = {}, {}, {}
        for stage in self.STAGES:
            argv = self.stage_argv(stage)
            buf = io.StringIO()
            # cli manifests record sys.argv, so set it as a shell run would
            saved, sys.argv = sys.argv, ["lampwalk", *argv]
            span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(buf):
                    t0 = perf_counter()
                    self.rc[stage] = self.cli.main(argv)
                    stage_s[stage] = perf_counter() - t0
            finally:
                sys.argv = saved
            self.stdout[stage] = buf.getvalue()
        t0 = perf_counter()
        p = self.params
        self.extra = {
            "stage_s": stage_s,
            "steps": p["n_traj"] * p["horizon"],
            "artifact_bytes": sum(f.stat().st_size for f in self.workdir.rglob("*") if f.is_file()),
        }
        self.untimed_s = perf_counter() - t0

    # -- outputs (a missing file reads as empty, so its operations fail) --

    def _csv_rows(self, name):
        path = self.workdir / name
        text = path.read_text() if path.is_file() else ""
        return [line for line in text.splitlines() if not line.startswith("# manifest")]

    def _tv_rows(self, name):
        import csv

        return list(csv.reader(self._csv_rows(name)))[1:]

    def _verify_lines(self):
        return [l for l in self.stdout["verify"].splitlines() if l.startswith(("PASS ", "FAIL "))]

    def _json(self, name, key, default):
        path = self.workdir / name
        return json.loads(path.read_text())[key] if path.is_file() else default

    def _reports(self):
        return self._json("analysis.json", "trajectories", [])

    def fingerprints(self):
        out = [(stage, str(self.rc[stage])) for stage in self.STAGES]
        out.append(("construction", self._json("mini.lwc.manifest.json", "construction", "")))
        reports = self._reports()
        for i in range(self.params["n_traj"]):
            rows = self._csv_rows(f"runs/trajectory-{i:04d}.csv")
            report = json.dumps(reports[i], sort_keys=True) if i < len(reports) else ""
            out.append((f"trajectory-{i}", _sha("\n".join(rows)) + _sha(report)))
        for name in ("tv.csv", "tv-oracle.csv"):
            out += [(f"{name}:{i}", ",".join(r)) for i, r in enumerate(self._tv_rows(name))]
        out += [(f"verify:{i}", line) for i, line in enumerate(self._verify_lines())]
        return out

    def observed(self):
        return {
            "construction": self._json("mini.lwc.manifest.json", "construction", ""),
            "tv": self._tv_rows("tv.csv"),
            "tv_oracle": self._tv_rows("tv-oracle.csv"),
            "verify": [l.split(":", 1)[0] for l in self._verify_lines()],
        }

    def check(self, golden):
        want = self.golden(golden)
        failed = [stage for stage in self.STAGES if self.rc[stage] != 0]
        got = self.observed()
        if got["construction"] != want["construction"] and "build" not in failed:
            failed.append("build")
        failed += self._check_trajectories()
        for name, key in (("tv.csv", "tv"), ("tv-oracle.csv", "tv_oracle")):
            failed += [f"{name}:{i}" for i in _bad_tv_rows(got[key], want[key])]
            if len(got[key]) != len(want[key]) and key not in failed:
                failed.append(key)
        names = [l.split(" ", 1)[1] for l in got["verify"]]
        failed += [f"verify:{i}" for i, l in enumerate(got["verify"]) if not l.startswith("PASS ")]
        if names != [l.split(" ", 1)[1] for l in want["verify"]] and "verify" not in failed:
            failed.append("verify")
        return failed

    def _check_trajectories(self):
        import csv

        csv.field_size_limit(2**31 - 1)
        p = self.params
        law = ref.LevelLaw(p["truncation"])
        reports = self._reports()
        failed = []
        for i in range(p["n_traj"]):
            rows = list(csv.reader(self._csv_rows(f"runs/trajectory-{i:04d}.csv")))[1:]
            steps = ref.stream(ref.trajectory_rng(self.seed, i), p["horizon"], law,
                               x_level_cap=p["x_level_cap"])
            ok = len(rows) == len(steps) and i < len(reports)
            if ok:
                ok = _trajectory_ok(rows, steps, reports[i], p["x_level_cap"])
            if not ok:
                failed.append(f"trajectory-{i}")
        return failed


def _trajectory_ok(rows, steps, report, cap) -> bool:
    """One trajectory's CSV rows and analysis report against the reference."""
    ks = [s[0] for s in steps]
    ys = [s[1] for s in steps]
    rec, non_strict, simple = ref.records(ks)
    flags = ref.stable_flags(ks, ys)
    i0 = ref.stabilization(flags)
    chain = next((i for i, k in enumerate(ks) if k > cap), len(ks))
    for i, (row, (k, y, sigma)) in enumerate(zip(rows, steps)):
        if len(row) != 9:
            return False
        step, rk, ry, rsigma, x, z, is_rec, is_simple, flag = row
        if [step, rk, ry, rsigma] != [str(i + 1), str(k), y, str(sigma)]:
            return False
        if bool(x) != (k <= cap) or bool(z) != (i < chain):
            return False
        if [is_rec, is_simple, flag] != [str(int(i + 1 in rec)), str(int(i + 1 in simple)),
                                         str(int(flags[i]))]:
            return False
    if (report["record_times"], report["non_strict_record_times"],
            report["simple_record_times"], report["stabilization_time"]) != (rec, non_strict, simple, i0):
        return False
    if i0 is None:
        tail = []
    else:
        dom = ref.dominant(ks)
        tail = sorted({dom[i - 1] for i in range(i0 + 1, len(ks) + 1)})
    if [(e["time"], e["level"]) for e in report["tail"]] != [(m, ks[m - 1]) for m in tail]:
        return False
    for e in report["tail"]:
        m = e["time"]
        z_text = rows[m - 2][5] if m >= 2 else IDENTITY
        if e["materialized"] != bool(z_text):
            return False
        if z_text and e["element"] != ref.element_json(z_text):
            return False
    conditions = report["conditions"]
    if conditions["p_dynamics"]["status"] == "fail" or conditions["window_membership"]["status"] == "fail":
        return False
    # tails of a nontrivial translate never coincide (acceptance criterion 5)
    return all(v in ("distinct", "censored") for v in report.get("freeness", {}).values())


def _bad_tv_rows(got, want):
    bad = []
    for i, row in enumerate(got):
        if i >= len(want):
            bad.append(i)
            continue
        exp = want[i]
        ok = row[:3] == exp[:3] and all(
            ref.bounds_match(float(a), float(b)) for a, b in zip(row[3:6], exp[3:6])
        )
        if exp[6]:
            exact = float(row[6]) if row[6] else float("nan")
            ok = ok and ref.bounds_match(exact, float(exp[6]))
            ok = ok and float(row[3]) >= exact - ref.ORACLE_SLACK
        if not ok:
            bad.append(i)
    return bad


# -- mini-sym-verify ------------------------------------------------------------------


class MiniSymVerify(Workload):
    """The verification suite on the symmetric mini construction."""

    name = "mini-sym-verify"

    def imports(self):
        from lampwalk import analysis, construction, verify

        self.lw = (analysis, construction, verify)

    def prepare(self):
        _, construction, _ = self.lw
        cfg = construction.Config(brute_verify=False)
        self.c = construction.Construction("symmetric", "mini", cfg)
        self.c.build_to(self.params["levels"])

    def run(self, tracer=None):
        analysis, _, verify = self.lw
        indexes = self.indexes = {}

        class RecordingOracle(analysis.WindowOracle):
            def index(self, i, prime=False):
                built = super().index(i, prime)
                if not prime:
                    indexes[i] = built
                return built

        verify.WindowOracle = RecordingOracle
        self.results = verify.run_verification_suite(self.c)

    def fingerprints(self):
        observed = self.observed()
        out = [(name, f"{ok} {detail}") for name, ok, detail in self.results]
        out.append(("check-names", json.dumps(observed["checks"])))
        out.append(("window-forms", json.dumps(observed["forms"])))
        return out

    def observed(self):
        forms = {str(i): [len(f.values) for f in idx.factors] for i, idx in sorted(self.indexes.items())}
        return {"checks": [r[0] for r in self.results], "forms": forms}

    def check(self, golden):
        want = self.golden(golden)
        got = self.observed()
        failed = [name for name, ok, _ in self.results if not ok]
        if got["checks"] != want["checks"]:
            failed.append("check-names")
        if got["forms"] != want["forms"]:
            failed.append("window-forms")
        return failed


WORKLOADS = {w.name: w for w in (PaperWalks, MiniPipeline, MiniSymVerify)}
