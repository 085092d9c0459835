"""The benchmark's tracer patches package names from outside; a rename shows here."""

import subprocess
import sys
from pathlib import Path

from cli_env import cli_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_against_the_package():
    # install() looks up every function and method it wraps, so a deleted or
    # renamed one fails here instead of in a ``--trace 1`` benchmark run
    code = "from tracer import Tracer, install; install(Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=PERFBENCH, env=cli_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_times_the_switcher_scans():
    # the scans run through the two public entry points the tracer wraps; a
    # call that bypasses them would leave the benchmark's scan span empty.
    # The two factors of level 1 ask for the same two (b, set) pairs, and
    # each distinct pair is scanned once.
    code = (
        "from tracer import Tracer, install\n"
        "t = Tracer()\n"
        "install(t)\n"
        "from lampwalk.construction import Config, Construction\n"
        "c = Construction('symmetric', 'mini', Config(brute_verify=False))\n"
        "c.build_to(1)\n"
        "rows = [(rep.candidate, req.elements) for _, req, rep in c.switcher_scans(c.level(1))"
        " if rep.passed]\n"
        "distinct = set(rows)\n"
        "print(len(rows), len(distinct), t.calls['switchers.scan'],"
        " t.counts['switchers.scan.pairs'], sum(2 * len(req) ** 2 for _, req in distinct))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=PERFBENCH, env=cli_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows, distinct, calls, pairs, expected = map(int, proc.stdout.split())
    assert rows == 4
    assert calls == distinct == 2
    assert pairs == expected > 0
