"""End-to-end CLI: build, sample, analyze, tv, verify; determinism contract."""

import csv
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cli_env import cli_env

CLI = [sys.executable, "-m", "lampwalk.cli"]


def run(args, cwd, check=True):
    proc = subprocess.run(
        CLI + args, cwd=cwd, capture_output=True, text=True, env=cli_env()
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"{args} failed:\n{proc.stdout}\n{proc.stderr}")
    return proc


def pipeline(root: Path, seed: int):
    root.mkdir(parents=True, exist_ok=True)
    run(["build", "--schedule", "mini", "--mode", "asymmetric", "--max-level", "2",
         "--mini-box-cap", "1", "--out", "mini.lwc"], root)
    run(["sample", "mini.lwc", "--seed", str(seed), "--n-traj", "3", "--horizon", "60",
         "--truncation-level", "500", "--x-level-cap", "500", "--out-dir", "runs"], root)
    trajs = sorted(str(p.relative_to(root)) for p in (root / "runs").glob("trajectory-*.csv"))
    run(["analyze", *trajs, "--construction", "mini.lwc",
         "--freeness", "(0|0;0|)", "(0|;0|)", "--out", "analysis.json",
         "--seed", str(seed)], root)
    run(["tv", "mini.lwc", "--generators", "0|0", "0|", "--n-grid", "2,4",
         "--truncation-level", "2", "--oracle", "--out", "tv.csv",
         "--seed", str(seed)], root)
    return root


def snapshot(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_pipeline_deterministic(tmp_path):
    a = pipeline(tmp_path / "a", seed=11)
    b = pipeline(tmp_path / "b", seed=11)
    sa, sb = snapshot(a), snapshot(b)
    assert set(sa) == set(sb)
    for name in sa:
        assert sa[name] == sb[name], f"{name} differs between identical runs"


def test_pipeline_seed_changes_outputs(tmp_path):
    a = pipeline(tmp_path / "a", seed=11)
    b = pipeline(tmp_path / "b", seed=12)
    assert snapshot(a)["runs/trajectory-0000.csv"] != snapshot(b)["runs/trajectory-0000.csv"]


def test_analysis_contents(tmp_path):
    root = pipeline(tmp_path / "a", seed=13)
    payload = json.loads((root / "analysis.json").read_text())
    assert payload["trajectories"]
    for report in payload["trajectories"]:
        assert "record_times" in report and "conditions" in report
        if report["stabilization_time"] is not None:
            assert report["freeness"]["(0|;0|)"] in ("identical", "censored")


def test_tv_csv_contents(tmp_path):
    root = pipeline(tmp_path / "a", seed=14)
    lines = (root / "tv.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    header = lines[1].split(",")
    assert header == [
        "generator", "factor", "n", "certified_bound", "record_failure_term",
        "loss_term", "exact_tv",
    ]
    rows = [line.split(",") for line in lines[2:]]
    assert all(row[6] != "" for row in rows)  # oracle column filled at n <= 4
    identity_rows = [row for row in rows if row[0] == "0|"]
    assert identity_rows and all(float(row[5]) == 0.0 for row in identity_rows)


def test_tv_oracle_past_the_red_underflow(tmp_path):
    # the oracle builds to the truncation level, past the level (1061) where
    # the red branch mass underflows to 0.0
    run(["build", "--schedule", "mini", "--max-level", "2", "--mini-box-cap", "1",
         "--out", "mini.lwc"], tmp_path)
    proc = run(["tv", "mini.lwc", "--oracle", "--n-grid", "1", "--truncation-level", "1100",
                "--out", "tv.csv"], tmp_path, check=False)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "tv.csv").read_text().splitlines()[2:]
    assert rows and all(row.split(",")[6] != "" for row in rows)


def test_tv_past_the_dp_cap_is_an_error_line(tmp_path):
    run(["build", "--schedule", "mini", "--max-level", "2", "--mini-box-cap", "1",
         "--out", "m.lwc"], tmp_path)
    proc = run(["tv", "m.lwc", "--n-grid", "2", "--truncation-level", "5000",
                "--out", "tv.csv"], tmp_path, check=False)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: truncation level 5000 is past the record DP's cap of 4096\n"
    )


def test_verify_passes_and_corruption_fails(tmp_path):
    root = tmp_path / "a"
    root.mkdir()
    run(["build", "--schedule", "mini", "--mode", "asymmetric", "--max-level", "1",
         "--out", "mini.lwc"], root)
    proc = run(["verify", "mini.lwc"], root)
    assert "checks passed" in proc.stdout

    # change the recorded construction digest and refresh the integrity line:
    # the loader accepts the file, the rebuild check must reject it
    import hashlib

    path = root / "mini.lwc"
    body = path.read_text().rsplit("sha256: ", 1)[0]
    recorded = body.split("construction-sha256: ", 1)[1].split("\n", 1)[0]
    body = body.replace(recorded, "0" * 64, 1)
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + f"sha256: {digest}\n")
    proc = run(["verify", "mini.lwc"], root, check=False)
    assert proc.returncode == 1
    assert "FAIL deterministic-rebuild" in proc.stdout


def test_verify_rejects_truncated_file(tmp_path):
    root = tmp_path / "a"
    root.mkdir()
    run(["build", "--schedule", "mini", "--max-level", "1", "--out", "mini.lwc"], root)
    text = (root / "mini.lwc").read_text()
    (root / "mini.lwc").write_text(text[: len(text) // 2])
    proc = run(["verify", "mini.lwc"], root, check=False)
    assert proc.returncode == 2
    assert "missing integrity line (file truncated?)" in proc.stderr


def test_build_rejects_bad_level(tmp_path):
    for flags, message in (
        (["--max-level", "0"], "error: argument --max-level: "),
        (["--mini-box-cap", "0"], "error: argument --mini-box-cap: "),
        (["--mini-box-cap", "3"], "error: argument --mini-box-cap: "),
    ):
        proc = run(["build", *flags, "--out", "x.lwc"], tmp_path, check=False)
        assert proc.returncode == 2, flags
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (["sample", "m.lwc", "--horizon", "0"], "--horizon"),
    (["sample", "m.lwc", "--truncation-level", "0"], "--truncation-level"),
    (["sample", "m.lwc", "--x-level-cap", "-1"], "--x-level-cap"),
    (["sample", "m.lwc", "--x-level-cap", "nine"], "--x-level-cap"),
    (["sample", "m.lwc", "--n-traj", "-1"], "--n-traj"),
    (["tv", "m.lwc", "--n-grid", "0", "--out", "tv.csv"], "--n-grid"),
    (["tv", "m.lwc", "--n-grid", "10,-5", "--out", "tv.csv"], "--n-grid"),
    (["tv", "m.lwc", "--truncation-level", "0", "--out", "tv.csv"], "--truncation-level"),
    (["tv", "m.lwc", "--oracle-n-cap", "-1", "--out", "tv.csv"], "--oracle-n-cap"),
])
def test_bad_counts_are_argparse_errors(tmp_path, monkeypatch, capsys, argv, flag):
    # rejected while parsing, before m.lwc (absent here) is opened
    from lampwalk import cli

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err
    assert "Traceback" not in err


def test_cap_text_reaches_the_manifest_as_given():
    from lampwalk import cli

    for text in ("none", "0", "100"):
        args = cli.build_parser().parse_args(["sample", "m.lwc", "--x-level-cap", text])
        assert cli._effective_config(args)["x-level-cap"] == text


def test_verify_switcher_subcommand(tmp_path):
    (tmp_path / "set.txt").write_text("0|\n0|0\n")
    passing = run(["verify-switcher", "set.txt", "2|1"], tmp_path)
    payload = json.loads(passing.stdout)
    assert payload["passed"] and payload["kind"] == "switcher"
    failing = run(["verify-switcher", "set.txt", "0|0"], tmp_path, check=False)
    assert failing.returncode == 1
    payload = json.loads(failing.stdout)
    assert not payload["passed"] and payload["witness"] == ["0|", "0|"]


def test_verify_switcher_witnesses_are_encoded(tmp_path):
    # elements print in the canonical grammar and signs as ints, for each
    # witness shape: one pair or triple landing in A, and two that collide
    (tmp_path / "cursors.txt").write_text("0|\n1|\n")
    cases = [
        (["cursors.txt", "1|"], ["0|", "0|"]),
        (["cursors.txt", "10|"], [["0|", "1|"], ["1|", "0|"]]),
        (["cursors.txt", "1|", "--super"], ["0|", 1, "0|"]),
        (["cursors.txt", "1|0", "--super"], [["0|", 1, "0|"], ["1|", -1, "1|"]]),
    ]
    for args, witness in cases:
        proc = run(["verify-switcher", *args], tmp_path, check=False)
        assert proc.returncode == 1, args
        assert json.loads(proc.stdout)["witness"] == witness, args


def test_inspect(tmp_path):
    build = run(["build", "--schedule", "mini", "--max-level", "2", "--mini-box-cap", "1",
                 "--out", "mini.lwc"], tmp_path)
    proc = run(["inspect", "mini.lwc"], tmp_path)
    head, levels = proc.stdout.splitlines()[:4], proc.stdout.splitlines()[4:]
    assert head[:3] == ["mode: asymmetric", "schedule: mini", "levels built: 2"]
    assert head[3].startswith("digest: ") and head[3][8:20] in build.stdout
    # build prints each level as it is built, and inspect each loaded level, in one format
    assert levels == build.stdout.splitlines()[:-1]
    assert levels == [
        "level 1: box n=1 folner=recorded ratio=0",
        "  factor 1: core=1 exact=yes cert=(0,0) b1=2|1 b2=100|40 c=0|",
        "  factor 2: core=1 exact=yes cert=(0,0) b1=2|1 b2=100|40 c=0|",
        "level 2: box n=1 folner=recorded ratio=20",
        "  factor 1: core=5 exact=yes cert=(102,42) b1=1412|553 b2=68884|27382 c=-1|",
        "  factor 2: core=5 exact=yes cert=(102,42) b1=1412|553 b2=68884|27382 c=0|",
    ]


def test_level_lines_stay_short_on_deep_builds(tmp_path, monkeypatch, capsys):
    from lampwalk import cli

    # level 100's certificate radii have 281 digits each
    monkeypatch.chdir(tmp_path)
    assert cli.main(["build", "--max-level", "100", "--mini-box-cap", "1", "--no-brute-verify",
                     "--out", "m.lwc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 301 and lines[-1].startswith("saved m.lwc")
    assert max(map(len, lines)) <= 200
    assert " cert=(~2^" in lines[-2]


def test_integers_past_64_bits_print_as_powers_of_two():
    from lampwalk import cli

    assert cli._short_int_text(2**64 - 1) == "18446744073709551615"
    assert cli._short_int_text(-(2**64 - 1)) == "-18446744073709551615"
    assert cli._short_int_text(2**64) == "~2^64"
    assert cli._short_int_text(-(2**64)) == "~-2^64"
    assert cli._short_int_text(-(3 * 2**5000)) == "~-2^5001"


def test_manifest_records_the_flag_values(tmp_path):
    run(["build", "--schedule", "mini", "--max-level", "1", "--out", "mini.lwc"],
        tmp_path)
    sample = ["sample", "mini.lwc", "--seed", "3", "--n-traj", "1", "--horizon", "30",
              "--truncation-level", "100", "--x-level-cap", "100", "--out-dir", "runs"]
    run(sample, tmp_path)
    manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
    assert manifest["config"]["horizon"] == "30"
    assert manifest["config"]["n-traj"] == "1"
    # every run setting is a flag; there is no config file to read
    proc = run([*sample, "--config", "run.cfg"], tmp_path, check=False)
    assert proc.returncode == 2 and "unrecognized arguments: --config" in proc.stderr


def run_in_process(argv, monkeypatch):
    """cli.main(argv) in this process, with sys.argv set as a shell run sets it."""
    from lampwalk import cli

    monkeypatch.setattr(sys, "argv", ["lampwalk", *argv])
    assert cli.main(argv) == 0, argv


MINI_BUILD = ["build", "--schedule", "mini", "--mini-box-cap", "1", "--max-level", "2",
              "--out", "m.lwc"]


@pytest.mark.parametrize("mode", ["asymmetric", "symmetric"])
def test_verify_passes_a_paper_file_beyond_the_window_oracles(mode, tmp_path, monkeypatch, capsys):
    # paper level 2's box is too large for a window index or a brute switcher
    # scan: the window rows report it as skipped, the scans as certificate mode
    monkeypatch.chdir(tmp_path)
    run_in_process(["build", "--schedule", "paper", "--mode", mode, "--max-level", "2",
                    "--out", "p.lwc"], monkeypatch)
    capsys.readouterr()
    run_in_process(["verify", "p.lwc"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    skipped = "skipped: level 2 box too large for window enumeration"
    assert f"PASS decomposition-unique-L2: {skipped}" in lines
    assert f"PASS window-disjoint-L1L2: {skipped}" in lines
    assert "PASS switcher-brute-L2: box too large; certificate mode" in lines
    if mode == "asymmetric":
        assert "PASS folner-L2: exact ratio 0.182401 vs delta 0.5" in lines
    assert not any(line.startswith("FAIL ") for line in lines)


def test_manifest_records_the_argv_main_was_given(tmp_path, monkeypatch):
    # an in-process caller's own arguments are not the run's
    from lampwalk import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["pytest", "-q", "tests"])
    assert cli.main(MINI_BUILD) == 0
    manifest = json.loads((tmp_path / "m.lwc.manifest.json").read_text())
    assert manifest["command"] == MINI_BUILD


def test_tv_manifest_names_the_loaded_file(tmp_path, monkeypatch):
    # tv builds the loaded 2-level construction to the bound's goal, 30 levels;
    # its manifest must still carry the digest of m.lwc, not that of the grown
    # construction
    from lampwalk import cli

    monkeypatch.chdir(tmp_path)
    run_in_process(MINI_BUILD, monkeypatch)
    file_digest = json.loads((tmp_path / "m.lwc.manifest.json").read_text())["construction"]
    argv = ["tv", "m.lwc", "--truncation-level", "30", "--out", "tv.csv"]
    run_in_process(argv, monkeypatch)
    want = cli.Manifest(
        command=argv,
        config=cli._effective_config(cli.build_parser().parse_args(argv)),
        construction_digest=file_digest,
    )
    first = (tmp_path / "tv.csv").read_text().splitlines()[0]
    assert first == f"# manifest {want.digest()}"


def test_only_build_and_verify_serialize(tmp_path, monkeypatch):
    # the CLI stamps the digest that save wrote or load read; re-serializing
    # a 600-level construction just to hash it again was most of build's time.
    # digest() and serialize() both write the body through _body_lines
    from lampwalk.construction import Construction

    calls = []
    body_lines = Construction._body_lines

    def counted(self):
        calls.append(self)
        return body_lines(self)

    monkeypatch.setattr(Construction, "_body_lines", counted)
    monkeypatch.chdir(tmp_path)
    stages = [
        (MINI_BUILD, 1),
        (["sample", "m.lwc", "--n-traj", "2", "--horizon", "20", "--truncation-level", "100",
          "--x-level-cap", "100", "--out-dir", "runs"], 0),
        (["analyze", "runs/trajectory-0000.csv", "runs/trajectory-0001.csv",
          "--construction", "m.lwc", "--freeness", "(0|0;0|)", "--out", "analysis.json"], 0),
        (["tv", "m.lwc", "--n-grid", "2,4", "--truncation-level", "2", "--oracle",
          "--out", "tv.csv"], 0),
        (["inspect", "m.lwc"], 0),
        (["verify", "m.lwc"], 1),  # the rebuild check hashes the fresh build only
    ]
    for argv, want in stages:
        calls.clear()
        run_in_process(argv, monkeypatch)
        assert len(calls) == want, argv[0]


# the minimal argv of each subcommand; "" stands for the top-level parser,
# whose options go before the subcommand
MINIMAL_ARGV = {
    "": ["inspect", "m.lwc"],
    "build": ["build", "--out", "x.lwc"],
    "sample": ["sample", "m.lwc"],
    "analyze": ["analyze", "t.csv", "--out", "a.json"],
    "tv": ["tv", "m.lwc", "--out", "tv.csv"],
    "verify": ["verify", "m.lwc"],
    "verify-switcher": ["verify-switcher", "set.txt", "0|"],
    "inspect": ["inspect", "m.lwc"],
}
RUN_FLAGS = {"--seed": ["--seed", "1"], "--stamp": ["--stamp"], "--out-dir": ["--out-dir", "x"]}
FLAG_SLOTS = {
    "": set(),
    "build": {"--seed", "--stamp"},
    "sample": {"--seed", "--stamp", "--out-dir"},
    "analyze": {"--seed"},
    "tv": {"--seed"},
    "verify": set(),
    "verify-switcher": set(),
    "inspect": set(),
}


def test_run_flags_are_taken_only_where_they_act():
    # --seed where a manifest records it, --stamp where a manifest file is
    # written, --out-dir where files go to a directory: 7 slots of 24
    from lampwalk import cli

    parser = cli.build_parser()
    for command, argv in MINIMAL_ARGV.items():
        taken = set()
        for flag, tokens in RUN_FLAGS.items():
            try:
                parser.parse_args(tokens + argv if command == "" else argv + tokens)
            except SystemExit as exc:
                assert exc.code == 2
            else:
                taken.add(flag)
        assert taken == FLAG_SLOTS[command], command


def _set_cell(source: Path, target: Path, step: int, column: str, text: str = "") -> None:
    """Copy a trajectory CSV with one cell of one step set to ``text`` (blank by default)."""
    from lampwalk.sampling import TRAJECTORY_COLUMNS

    with open(source, newline="") as fh:
        manifest = fh.readline()
        rows = list(csv.reader(fh))
    rows[step][TRAJECTORY_COLUMNS.index(column)] = text  # rows[0] is the header
    with open(target, "w", newline="") as fh:
        fh.write(manifest)
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A level-2 mini file and trajectory CSVs that each break one rule."""
    from lampwalk import cli
    from lampwalk.groups import LamplighterElement, ProductElement, encode
    from lampwalk.construction import Construction
    from lampwalk.sampling import KDistribution, Trajectory, walk, write_trajectory_csv

    root = tmp_path_factory.mktemp("bad")
    assert cli.main(["build", "--mini-box-cap", "1", "--no-brute-verify",
                     "--out", str(root / "m.lwc")]) == 0
    write_trajectory_csv(root / "ok.csv", Trajectory([2, 1, 3], bytearray(3)), "x")
    lines = (root / "ok.csv").read_text().splitlines(keepends=True)
    (root / "k-text.csv").write_text("".join(lines[:3]) + lines[3].replace("2,1,", "2,x,", 1))
    (root / "k-zero.csv").write_text("".join(lines[:3]) + lines[3].replace("2,1,", "2,0,", 1))
    (root / "k-long.csv").write_text("".join(lines[:3]) + lines[3].replace("2,1,", f"2,{10**18},", 1))
    (root / "k-digit.csv").write_text("".join(lines[:3]) + lines[3].replace("2,1,", "2,\u0663,", 1))
    (root / "short.csv").write_text("".join(lines[:3]) + "2,1,blue\r\n")
    (root / "header-only.csv").write_text("".join(lines[:2]))
    (root / "bad-x.csv").write_text("".join(lines[:3]) + "2,1,blue,1,(1|;,,0,0,0\r\n")
    # a 6-step walk with every increment materialized, then one cell blanked
    walked = walk(Construction.load(root / "m.lwc"), 6, random.Random(1), KDistribution(truncation=2))
    write_trajectory_csv(root / "full.csv", walked, "x")
    _set_cell(root / "full.csv", root / "z-gap.csv", step=2, column="z")
    _set_cell(root / "full.csv", root / "x-gap.csv", step=1, column="x")
    # step 4's z cell holds step 3's partial product
    z3 = encode(walked.z(3))
    assert z3 != encode(walked.z(4))
    _set_cell(root / "full.csv", root / "z-swap.csv", step=4, column="z", text=z3)
    # a 6-step metadata file with two rows swapped, a tenth cell, or a wrong step cell
    write_trajectory_csv(root / "meta.csv", Trajectory([1, 25, 1, 3, 2, 1], bytearray(6)), "x")
    meta = (root / "meta.csv").read_text().splitlines(keepends=True)  # manifest, header, rows
    (root / "swapped.csv").write_text("".join(meta[:3] + [meta[4], meta[3]] + meta[5:]))
    (root / "wide.csv").write_text("".join(meta[:5] + [meta[5].replace("\n", ",0\n")] + meta[6:]))
    _set_cell(root / "meta.csv", root / "step-99.csv", step=4, column="step", text="99")
    # a tail record at step 2 (level 3) whose q1 = z_1 is far outside A(1,3)^1
    huge = LamplighterElement((10**400,), 0)
    z1 = ProductElement(huge, huge)
    escape = Trajectory([1, 3], bytearray(2), elements={0: (None, None, z1)}, zs=[z1])
    write_trajectory_csv(root / "escape.csv", escape, "x")
    # bytes that are not UTF-8 text, and a set file with a bad second element
    (root / "bin.csv").write_bytes("".join(lines[:2]).encode() + b"\xff\xfe\r\n")
    (root / "bin.lwc").write_bytes((root / "m.lwc").read_bytes()[:40] + b"\xff\xfe")
    (root / "bin.txt").write_bytes(b"0|\n\xff\xfe\n")
    (root / "bad.txt").write_text("0|\n07|\n")
    return root


@pytest.mark.parametrize("argv, message", [
    # run flags where they do nothing
    (["--seed", "5", "sample", "{root}/m.lwc"], "invalid choice: '5'"),
    (["verify", "{root}/m.lwc", "--seed", "1"], "unrecognized arguments: --seed"),
    (["inspect", "{root}/m.lwc", "--out-dir", "x"], "unrecognized arguments: --out-dir"),
    (["analyze", "{root}/ok.csv", "--stamp", "--out", "a.json"], "unrecognized arguments: --stamp"),
    (["tv", "{root}/m.lwc", "--stamp", "--out", "tv.csv"], "unrecognized arguments: --stamp"),
    (["tv", "{root}/m.lwc", "--out-dir", "x", "--out", "tv.csv"], "unrecognized arguments: --out-dir"),
    # a path that cannot be opened or written
    (["sample", "missing.lwc"], "missing.lwc"),
    (["tv", "missing.lwc", "--out", "tv.csv"], "missing.lwc"),
    (["verify", "missing.lwc"], "missing.lwc"),
    (["inspect", "missing.lwc"], "missing.lwc"),
    (["analyze", "missing.csv", "--out", "a.json"], "missing.csv"),
    (["verify-switcher", "missing.txt", "0|"], "missing.txt"),
    (["build", "--max-level", "1", "--no-brute-verify", "--out", "nodir/x.lwc"], "nodir/x.lwc"),
    # trajectory files that break a rule
    (["analyze", "{root}/k-text.csv", "--out", "a.json"], "k-text.csv: step 2 has level 'x'"),
    (["analyze", "{root}/k-zero.csv", "--out", "a.json"], "k-zero.csv: step 2 has level '0'"),
    (["analyze", "{root}/short.csv", "--out", "a.json"], "short.csv: step 2 has 3 cells"),
    (["analyze", "{root}/header-only.csv", "--out", "a.json"], "header-only.csv: no steps"),
    (["analyze", "{root}/bad-x.csv", "--out", "a.json"], "bad-x.csv: step 2: "),
    (["analyze", "{root}/escape.csv", "--construction", "{root}/m.lwc", "--out", "a.json"],
     "tracked q1 escapes the A(1,3)^1 certificate"),
    # files that are not UTF-8 text, and a set file with a bad element
    (["analyze", "{root}/bin.csv", "--out", "a.json"], "bin.csv: not UTF-8 text"),
    (["inspect", "{root}/bin.lwc"], "bin.lwc: not UTF-8 text"),
    (["verify-switcher", "{root}/bin.txt", "0|"], "bin.txt: not UTF-8 text"),
    (["verify-switcher", "{root}/bad.txt", "1|"],
     "bad.txt: line 2: not a canonical integer: '07' (at position 0)"),
    # z cells the writer never writes: after a missing z cell, and beside a missing x cell
    (["analyze", "{root}/z-gap.csv", "--out", "a.json"], "z-gap.csv: step 3 has a z cell"),
    (["analyze", "{root}/x-gap.csv", "--out", "a.json"], "x-gap.csv: step 1 has a z cell"),
    # freeness verdicts without the construction that gates them, refused before any file is read
    (["analyze", "missing.csv", "--freeness", "(0|0;0|)", "--out", "a.json"],
     "--freeness needs --construction"),
    # freeness elements that are not pairs, refused before any trajectory is read
    (["analyze", "missing.csv", "--construction", "{root}/m.lwc", "--freeness", "0|0",
      "--out", "a.json"], "--freeness element '0|0' is not a pair of lamplighter elements"),
    (["analyze", "missing.csv", "--construction", "{root}/m.lwc", "--freeness", "1,2",
      "--out", "a.json"], "--freeness element '1,2' is not a pair of lamplighter elements"),
    # marginal generators that are not lamplighter elements, refused before any level is built
    (["tv", "{root}/m.lwc", "--generators", "(0|;0|)", "--out", "tv.csv"],
     "--generators element '(0|;0|)' is not a lamplighter element"),
    (["tv", "{root}/m.lwc", "--generators", "1,2", "--out", "tv.csv"],
     "--generators element '1,2' is not a lamplighter element"),
    # a z cell that is another step's partial product
    (["analyze", "{root}/z-swap.csv", "--out", "a.json"],
     "z-swap.csv: step 4 has a z cell that is not the product of the x cells up to it"),
    # rows out of order, a row wider than the header, and a step cell that is not its step
    (["analyze", "{root}/swapped.csv", "--out", "a.json"], "swapped.csv: step 2 has step cell '3'"),
    (["analyze", "{root}/wide.csv", "--out", "a.json"], "wide.csv: step 4 has 10 cells"),
    (["analyze", "{root}/step-99.csv", "--out", "a.json"], "step-99.csv: step 4 has step cell '99'"),
    # a level past any level law's table (4,301 digits would pass int()'s default limit),
    # and one in a digit the writer never writes (int() reads Arabic-Indic three as 3)
    (["analyze", "{root}/k-long.csv", "--out", "a.json"], f"k-long.csv: step 2 has level '{10**18}'"),
    (["analyze", "{root}/k-digit.csv", "--out", "a.json"], "k-digit.csv: step 2 has level '\u0663'"),
])
def test_bad_input_is_one_error_line(bad_inputs, tmp_path, monkeypatch, capsys, argv, message):
    from lampwalk import cli

    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main([a.replace("{root}", str(bad_inputs)) for a in argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert message in err
    assert "Traceback" not in err


MUTATION_SEED = 7
MUTANTS_PER_FILE = 300


def _mutant(data: bytes, kind: int, rng: random.Random) -> bytes:
    """``data`` with one byte flipped, its tail cut, two lines swapped, or one byte deleted."""
    i = rng.randrange(len(data))
    if kind == 0:
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:]
    if kind == 1:
        return data[:i]
    if kind == 2:
        lines = data.splitlines(keepends=True)
        a, b = rng.sample(range(len(lines)), 2)
        lines[a], lines[b] = lines[b], lines[a]
        return b"".join(lines)
    return data[:i] + data[i + 1:]


def test_mutated_files_are_verdicts_or_one_error_line(tmp_path, monkeypatch, capsys):
    """Seeded mutants of a 5-level construction, a trajectory CSV and a 3-line set file.

    Every run exits 0 or 2, or 1 for a failing switcher verdict; none raises,
    and an exit-2 run prints exactly one ``error:`` line.
    """
    from lampwalk import cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["build", "--max-level", "5", "--mini-box-cap", "1", "--out", "m.lwc"]) == 0
    assert cli.main(["sample", "m.lwc", "--n-traj", "1", "--horizon", "8",
                     "--truncation-level", "1000", "--x-level-cap", "5"]) == 0
    Path("set.txt").write_text("0|\n0|0\n1|\n")
    readers = {
        "m.lwc": ["inspect", "mutant"],
        "out/trajectory-0000.csv": ["analyze", "mutant", "--construction", "m.lwc", "--out", "a.json"],
        "set.txt": ["verify-switcher", "mutant", "2|"],
    }
    rng = random.Random(MUTATION_SEED)
    bad = []
    for source, argv in readers.items():
        data = Path(source).read_bytes()
        for n in range(MUTANTS_PER_FILE):
            Path("mutant").write_bytes(_mutant(data, n % 4, rng))
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escape would end the CLI in a traceback
                code = repr(exc)
            out, err = capsys.readouterr()
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            failed_verdict = code == 1 and argv[0] == "verify-switcher" and '"passed": false' in out
            clean = code == 0 or failed_verdict or (code == 2 and len(errors) == 1)
            if not clean or "Traceback" in err:
                bad.append((source, n, code, err))
    assert not bad, bad[:5]


def test_manifest_config_holds_every_setting(tmp_path, monkeypatch):
    from lampwalk import cli

    def config(argv):
        return cli._effective_config(cli.build_parser().parse_args(argv))

    tv = ["tv", "m.lwc", "--out", "tv.csv", "--factor"]
    assert config([*tv, "1"]) != config([*tv, "2"])
    build = ["build", "--max-level", "1", "--mini-box-cap", "1", "--no-brute-verify",
             "--out", "m.lwc"]
    manifests = {}
    for name, extra in (("plain", []), ("stamped", ["--stamp"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli.main([*build, *extra]) == 0
        manifests[name] = json.loads(Path("m.lwc.manifest.json").read_text())
    plain, stamped = manifests["plain"], manifests["stamped"]
    assert plain["config"]["mini-box-cap"] == "1"
    assert "stamp" not in plain["config"] and "seed" not in plain
    # the digest leaves the timestamp out, and the flag that asks for it
    assert plain["timestamp"] == "" and stamped["timestamp"] != ""
    assert plain["digest"] == stamped["digest"]
