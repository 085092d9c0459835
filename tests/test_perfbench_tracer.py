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
