"""The benchmark drives the CLI with argument lists of its own; a CLI change
that refuses one of them shows here instead of in a benchmark run."""

import subprocess
import sys
from pathlib import Path

from cli_env import cli_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_pipeline_stages_parse():
    # every mini-pipeline stage, at both sizes, parses and dispatches to the
    # subcommand it names
    code = (
        "from pathlib import Path\n"
        "from lampwalk import cli\n"
        "from workloads import SIZES, MiniPipeline\n"
        "parser = cli.build_parser()\n"
        "for size in SIZES['mini-pipeline']:\n"
        "    w = MiniPipeline(1, size, Path('.'))\n"
        "    for stage in w.STAGES:\n"
        "        print(size, stage, parser.parse_args(w.stage_argv(stage)).func.__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=PERFBENCH, env=cli_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert {size for size, _, _ in lines} == {"full", "smoke"}
    assert len(lines) == 12
    for _, stage, func in lines:
        assert func == "cmd_" + stage.split("_")[0], (stage, func)
