"""Command-line behaviour: output, CSV determinism, exit codes."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gasp import harness
from gasp.cli import build_parser, main
from gasp.harness import mds_audit
from gasp.schemes import optimize_gasp

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_small_444(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "4", "--l", "4", "--t", "4", "--scheme", "small"
    )
    assert code == 0
    assert "N = 41" in out
    # mask rows of the published table
    assert out.splitlines()[-2].split("|")[0].strip() == "28"


def test_table_fixture_332(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "3", "--l", "3", "--t", "2", "--scheme", "small"
    )
    assert code == 0
    assert "N = 18" in out
    rows = [line for line in out.splitlines() if "|" in line]
    assert rows[1].split("|")[1].split() == ["0", "3", "6", "9", "10"]
    assert rows[-1].split("|")[1].split() == ["12", "15", "18", "21", "22"]


def test_table_trivial_big(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--k", "1", "--l", "1", "--t", "1", "--scheme", "big"
    )
    assert code == 0
    assert "N = 3" in out


def test_table_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--k", "2", "--l", "2", "--t", "2", "--g", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["table", "--k", "2", "--l", "3", "--t", "2", "--scheme", "grouped", "--g", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["table", "--k", "2"])
    assert err.value.code == 2


def test_rate_sweep_values(capsys):
    code, out, _ = run_cli(
        capsys, "rate-sweep", "--k", "3", "--l", "3", "--t-max", "3", "--out", "-"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "T,n_small,n_big,n_gasp,rate_gasp,rate_r1,rate_r2"
    assert lines[2] == "2,18,19,18,0.500,0.360,0.474"


def test_rate_sweep_k20(capsys):
    code, out, _ = run_cli(
        capsys, "rate-sweep", "--k", "20", "--l", "20", "--t-max", "1", "--out", "-"
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "440"
    assert row[4] == "0.909"


def test_rate_sweep_trivial_and_blank_r1(capsys):
    code, out, _ = run_cli(
        capsys, "rate-sweep", "--k", "1", "--l", "1", "--t-max", "1", "--out", "-"
    )
    assert code == 0
    assert out.strip().split("\n")[1] == "1,3,3,3,0.333,0.250,0.333"

    code, out, _ = run_cli(
        capsys, "rate-sweep", "--k", "2", "--l", "3", "--t-max", "1", "--out", "-"
    )
    row = out.strip().split("\n")[1].split(",")
    assert row[5] == ""


def test_rate_sweep_file_identical(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    for _ in range(2):
        assert main(
            ["rate-sweep", "--k", "4", "--l", "3", "--t-max", "6", "--out", str(target)]
        ) == 0
        capsys.readouterr()
        content = target.read_bytes()
    assert content == target.read_bytes()
    assert content.decode("ascii").endswith("\n")
    assert b"\r" not in content


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("rate_sweep_k20_l20_t40.csv", ["rate-sweep", "--k", "20", "--l", "20", "--t-max", "40"]),
        ("grouped_sweep_k36.csv", ["grouped-sweep", "--k", "36"]),
    ],
)
def test_sweep_csv_matches_golden(tmp_path, capsys, golden, argv):
    target = tmp_path / golden
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == (GOLDEN / golden).read_bytes()


def test_rate_sweep_unwritable(capsys):
    code = main(
        ["rate-sweep", "--k", "2", "--l", "2", "--t-max", "1", "--out", "/nonexistent/x.csv"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


# Commands whose output must not depend on what the parser parsed before;
# table and audit also read their subcommand's defaults.
REPEATED = (
    ["grouped-sweep", "--k", "6", "--out", "-"],
    ["rate-sweep", "--k", "3", "--l", "2", "--t-max", "4", "--out", "-"],
    ["table", "--k", "3", "--l", "3", "--t", "2"],
    ["optimize", "--n", "20", "--t", "2"],
    ["demo", "--k", "2", "--l", "2", "--t", "1"],
    ["audit", "--k", "1", "--l", "1", "--t", "1"],
)


@pytest.mark.parametrize(
    "argv, status",
    [
        (["rate-sweep", "--k", "2"], 2),  # refused by argparse
        (["rate-sweep", "--k", "2", "--l", "2", "--t-max", "0", "--out", "-"], 2),  # by a command
        (["--help"], 0),
        (["audit", "--help"], 0),
        (["grouped-sweep", "--k", "3", "--out", "/nonexistent/x.csv"], 1),
        (["audit", "--k", "1", "--l", "1", "--t", "1", "--p", "7", "--exhaustive"], 0),
        (["table", "--k", "4", "--l", "4", "--t", "4", "--scheme", "grouped", "--g", "2"], 0),
    ],
)
def test_parser_is_built_once_and_reused(capsys, argv, status):
    # main builds the parser on its first call and reuses it; after any
    # exit, each command prints byte for byte what it printed first.
    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    build_parser.cache_clear()
    first = [run(command) for command in REPEATED]
    assert all(code == 0 for code, _, _ in first)
    once = run(argv)
    assert once[0] == status
    assert run(argv) == once
    assert [run(command) for command in REPEATED] == first
    assert build_parser.cache_info().misses == 1


def test_grouped_sweep_k6(capsys):
    code, out, _ = run_cli(capsys, "grouped-sweep", "--k", "6", "--out", "-")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "G,N,rate"
    assert lines[1:] == [
        "1,83,0.434",
        "2,73,0.493",
        "3,74,0.486",
        "4,84,0.429",
        "5,87,0.414",
        "6,87,0.414",
    ]


def test_grouped_sweep_k9(capsys):
    code, out, _ = run_cli(capsys, "grouped-sweep", "--k", "9", "--out", "-")
    assert code == 0
    n_column = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
    assert n_column == ["179", "153", "148", "157", "174", "176", "180", "186", "186"]


def test_grouped_sweep_trivial(capsys):
    code, out, _ = run_cli(capsys, "grouped-sweep", "--k", "1", "--out", "-")
    assert code == 0
    assert out.strip().split("\n")[1] == "1,3,0.333"


def test_optimize_output(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--n", "50", "--t", "1")
    assert code == 0
    assert "gasp: K=6 L=6 servers=48 rate=0.750" in out

    code, out, _ = run_cli(capsys, "optimize", "--n", "50", "--t", "5")
    assert "kakar: K=12 L=2 servers=50 rate=0.480" in out

    code, out, _ = run_cli(capsys, "optimize", "--n", "3", "--t", "1")
    assert "gasp: K=1 L=1 servers=3 rate=0.333" in out
    assert "kakar: K=1 L=1 servers=3 rate=0.333" in out


def test_optimize_matches_golden():
    # Reads the optimizer table the benchmark checks; the file is not rewritten.
    lines = (GOLDEN / "optimize_n50.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "T,K,L,n_used,rate"
    rows = []
    for t in range(1, 25):
        best = optimize_gasp(50, t)
        rows.append(f"{t},{best.k},{best.l},{best.n_used},{best.rate}")
    assert lines[1:] == rows


def test_optimize_kakar_servers_are_gap_free_count(capsys):
    for n in range(3, 61):
        for t in range(1, (n - 1) // 2 + 1):
            code, out, _ = run_cli(capsys, "optimize", "--n", str(n), "--t", str(t))
            assert code == 0
            kakar = out.splitlines()[1].split()
            assert kakar[0] == "kakar:"
            k, l, servers = (int(field.split("=")[1]) for field in kakar[1:4])
            assert servers == (k + t) * (l + 1) - 1 <= n, (n, t)


def test_optimize_infeasible(capsys):
    with pytest.raises(SystemExit) as err:
        main(["optimize", "--n", "4", "--t", "2"])
    assert err.value.code == 2
    assert "gasp: error: need an int N >= 2T+1, got N=4, T=2" in capsys.readouterr().err


def test_demo_fixture(capsys):
    code, out, _ = run_cli(
        capsys,
        "demo", "--k", "3", "--l", "3", "--t", "2", "--p", "29", "--seed", "0",
    )
    assert code == 0
    assert "n_servers=18" in out
    assert "AB verified" in out


def test_demo_tiny(capsys):
    code, out, _ = run_cli(capsys, "demo", "--k", "1", "--l", "1", "--t", "1")
    assert code == 0
    assert "n_servers=3" in out
    assert "AB verified" in out


def test_demo_large_t(capsys):
    # (4,4,6) big: N = 43, so each mask side has C(43, 6) = 6,096,454 maximal
    # minors; the plan is certified without enumerating them.
    code, out, _ = run_cli(capsys, "demo", "--k", "4", "--l", "4", "--t", "6")
    assert code == 0
    assert "n_servers=43" in out
    assert "AB verified" in out


def python_env():
    """This environment with ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=python_env(), timeout=60
    )


def test_module_entry_point():
    result = run_python("-m", "gasp", "table", "--k", "3", "--l", "3", "--t", "2")
    assert result.returncode == 0, result.stderr
    assert "N = 18" in result.stdout


def test_import_builds_no_parser():
    # A fresh import of gasp.cli constructs no ArgumentParser; main's first
    # call builds the parser and its six subparsers, and the second none.
    script = """
import argparse, os
made = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import gasp.cli
counts = [len(made)]
for _ in range(2):
    assert gasp.cli.main(["grouped-sweep", "--k", "2", "--out", os.devnull]) == 0
    counts.append(len(made))
print(counts)
"""
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 7, 7]\n"


def test_cli_module_entry_point():
    # Without a __main__ guard in gasp.cli this printed nothing and exited 0.
    result = run_python("-m", "gasp.cli", "demo", "--k", "1", "--l", "1", "--t", "1")
    assert result.returncode == 0, result.stderr
    assert "n_servers=3" in result.stdout
    assert "AB verified" in result.stdout


def closed_early(argv, lines_read, unbuffered):
    """Status and stderr of ``python -m gasp`` when its reader closes stdout after some lines."""
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gasp", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv, lines_read", [
    # Closed before the command writes, as by `gasp optimize ... | head -0`.
    (["optimize", "--n", "1000000", "--t", "10"], 0),
    # About 120 KB, more than a pipe holds: the reader takes one line.
    (["rate-sweep", "--k", "20", "--l", "20", "--t-max", "3000", "--out", "-"], 1),
])
def test_reader_closing_stdout_early_is_no_error(argv, lines_read, unbuffered):
    # Buffered, the command used to exit 120 with "Exception ignored ...
    # BrokenPipeError" at shutdown; unbuffered, 1 with "error: [Errno 32]".
    assert closed_early(argv, lines_read, unbuffered) == (0, b"")


def test_reader_closing_stdout_keeps_a_failed_verdict():
    # Buffered, the audit's lines wait in the buffer until main's flush, so
    # the audit finishes: its failed verdict sets the status, not the
    # closed pipe.
    argv = ["audit", "--k", "1", "--l", "1", "--t", "1", "--exhaustive", "--zero-masks"]
    assert closed_early(argv, 0, False) == (1, b"")


def test_demo_grouped(capsys):
    code, out, _ = run_cli(
        capsys, "demo", "--k", "4", "--l", "4", "--t", "4", "--scheme", "grouped", "--g", "2"
    )
    assert code == 0
    assert "scheme=grouped(2)" in out
    assert "n_servers=36" in out
    assert "AB verified" in out


def test_demo_big_scheme(capsys):
    # (3,3,2) auto is small (N = 18); big asks for the other code (N = 19).
    code, out, _ = run_cli(
        capsys, "demo", "--k", "3", "--l", "3", "--t", "2", "--scheme", "big"
    )
    assert code == 0
    assert "n_servers=19" in out
    assert "AB verified" in out


@pytest.mark.parametrize("command", ["table", "demo", "audit"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "4", "--l", "4", "--t", "4", "--g", "2"],
        ["--k", "4", "--l", "4", "--t", "4", "--scheme", "big", "--g", "2"],
        ["--k", "4", "--l", "4", "--t", "4", "--scheme", "grouped"],
        ["--k", "4", "--l", "3", "--t", "4", "--scheme", "grouped", "--g", "2"],
        ["--k", "4", "--l", "4", "--t", "4", "--scheme", "nonsense"],
    ],
)
def test_scheme_usage_errors(capsys, command, flags):
    with pytest.raises(SystemExit) as err:
        main([command, *flags])
    assert err.value.code == 2


def test_sweeps_refuse_sizes_below_one(capsys):
    for argv, message in (
        (["rate-sweep", "--k", "2", "--l", "2", "--t-max", "0", "--out", "-"],
         "--t-max must be at least 1"),
        (["grouped-sweep", "--k", "0", "--out", "-"], "k must be a positive integer, got 0"),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_demo_bad_divisibility(capsys):
    with pytest.raises(SystemExit) as err:
        main(["demo", "--k", "3", "--l", "3", "--t", "2", "--r", "4"])
    assert err.value.code == 2


def test_demo_infeasible_field(capsys):
    with pytest.raises(SystemExit) as err:
        main(["demo", "--k", "3", "--l", "3", "--t", "2", "--p", "17"])
    assert err.value.code == 2
    assert "error" in capsys.readouterr().err


def test_audit_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--k", "3", "--l", "3", "--t", "2", "--p", "29"
    )
    assert code == 0
    assert "gv_det_nonzero=true" in out
    assert "p_mds=true" in out
    assert "q_mds=true" in out


def test_audit_grouped(capsys, monkeypatch):
    # The auto (4,4,4) code passes too, so record which code was audited.
    audited = []

    def recording_audit(code, plan):
        audited.append((code.scheme_label, code.n_servers))
        return mds_audit(code, plan)

    monkeypatch.setattr(harness, "mds_audit", recording_audit)
    code, out, _ = run_cli(
        capsys, "audit", "--k", "4", "--l", "4", "--t", "4", "--scheme", "grouped", "--g", "2"
    )
    assert code == 0
    assert out.splitlines() == ["gv_det_nonzero=true", "p_mds=true", "q_mds=true"]
    assert audited == [("grouped(2)", 36)]


@pytest.mark.parametrize("scheme", ["small", "big", "grouped"])
def test_audit_exhaustive_needs_auto_scheme(capsys, scheme):
    # The exhaustive audit builds the auto code, so it cannot audit another.
    g = ["--g", "1"] if scheme == "grouped" else []
    with pytest.raises(SystemExit) as err:
        main([
            "audit", "--k", "1", "--l", "1", "--t", "1", "--p", "5",
            "--scheme", scheme, *g, "--exhaustive",
        ])
    assert err.value.code == 2
    assert "--exhaustive" in capsys.readouterr().err


def test_audit_big_t8_passes(capsys):
    # N = 47: both mask sides take the O(N) progression certificate.
    code, out, _ = run_cli(capsys, "audit", "--k", "4", "--l", "4", "--t", "8")
    assert code == 0
    assert out.splitlines() == ["gv_det_nonzero=true", "p_mds=true", "q_mds=true"]


def test_audit_exhaustive_pass(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--k", "1", "--l", "1", "--t", "1", "--p", "5", "--exhaustive"
    )
    assert code == 0
    assert "exhaustive_private=true" in out


def test_audit_exhaustive_zero_masks_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit", "--k", "1", "--l", "1", "--t", "1", "--p", "5",
        "--exhaustive", "--zero-masks",
    )
    assert code == 1
    assert "exhaustive_private=false" in out


def test_audit_zero_masks_needs_exhaustive(capsys):
    # Only the exhaustive audit corrupts the masks; without it the checks
    # would pass a scheme the user asked to break.
    with pytest.raises(SystemExit) as err:
        main(["audit", "--k", "1", "--l", "1", "--t", "1", "--p", "5", "--zero-masks"])
    assert err.value.code == 2
    assert "--zero-masks" in capsys.readouterr().err


def test_audit_budget_refusal(capsys):
    code, _, err = run_cli(
        capsys, "audit", "--k", "3", "--l", "3", "--t", "2", "--p", "29", "--exhaustive"
    )
    assert code == 1
    assert "refused" in err


# Arguments refused by the library, not by argparse or the CLI's own
# checks; each is a usage error all the same.
REFUSED = (
    ["table", "--k", "0", "--l", "1", "--t", "1"],
    ["table", "--k", "4", "--l", "4", "--t", "4", "--scheme", "grouped", "--g", "0"],
    ["table", "--k", "4", "--l", "4", "--t", "4", "--scheme", "grouped", "--g", "5"],
    ["table", "--k", "4", "--l", "4", "--t", "4", "--scheme", "big", "--g", "2"],
    ["demo", "--k", "2", "--l", "2", "--t", "1", "--p", "16"],
    ["demo", "--k", "3", "--l", "3", "--t", "2", "--p", "17"],
    ["demo", "--k", "2", "--l", "2", "--t", "1", "--s", "0"],
    ["demo", "--k", "3", "--l", "3", "--t", "2", "--r", "4"],
    ["optimize", "--n", "4", "--t", "2"],
    ["grouped-sweep", "--k", "0", "--out", "-"],
    ["audit", "--k", "2", "--l", "2", "--t", "1", "--p", "16"],
    ["rate-sweep", "--k", "0", "--l", "2", "--t-max", "2", "--out", "-"],
)


@pytest.mark.parametrize("argv", REFUSED)
def test_refused_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    out, text = capsys.readouterr()
    assert err.value.code == 2
    assert out == ""
    assert text.startswith("usage: gasp ")
    assert text.splitlines()[-1].startswith("gasp: error: ")


# Failures after the arguments were accepted, each with its stderr.
RUNTIME_FAILURES = (
    (["demo", "--k", "5", "--l", "5", "--t", "5", "--scheme", "grouped", "--g", "2",
      "--p", "3527"],
     "error: no valid generator among 200 candidates: gv 2, alpha_mds 198\n"),
    # Refused before any walk.
    (["demo", "--k", "7", "--l", "7", "--t", "7", "--scheme", "grouped", "--g", "2"],
     "error: MDS check of 7 x 98 needs 339554320 steps, budget is 100000000\n"),
    (["audit", "--k", "3", "--l", "3", "--t", "2", "--p", "29", "--exhaustive"],
     "exhaustive audit refused: audit needs 6276411594 steps, budget is 100000000;"
     " not sampling\n"),
    (["audit", "--k", "1", "--l", "1", "--t", "1", "--p", "5", "--exhaustive", "--zero-masks"],
     ""),
    (["rate-sweep", "--k", "2", "--l", "2", "--t-max", "1", "--out", "/nonexistent/x.csv"],
     "error: [Errno 2] No such file or directory: '/nonexistent/x.csv'\n"),
)


@pytest.mark.parametrize("argv, message", RUNTIME_FAILURES)
def test_runtime_failures_exit_1(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (1, message)


def test_module_entry_point_exit_statuses():
    budget_argv, budget_message = RUNTIME_FAILURES[1]
    for argv, status, message in (
        (REFUSED[8], 2, "gasp: error: need an int N >= 2T+1, got N=4, T=2\n"),
        (REFUSED[9], 2, "gasp: error: k must be a positive integer, got 0\n"),
        (budget_argv, 1, budget_message),
    ):
        result = run_python("-m", "gasp", *argv)
        assert (result.returncode, result.stdout) == (status, "")
        assert result.stderr.endswith(message)


# Every command's options: (option, dest, type, default, required, choices).
SCHEMES = ["small", "big", "auto", "grouped"]
OPTIONS = {
    "table": [
        ("--k", "k", int, None, True, None),
        ("--l", "l", int, None, True, None),
        ("--t", "t", int, None, True, None),
        ("--scheme", "scheme", None, "auto", False, SCHEMES),
        ("--g", "g", int, None, False, None),
    ],
    "rate-sweep": [
        ("--k", "k", int, None, True, None),
        ("--l", "l", int, None, True, None),
        ("--t-max", "t_max", int, None, True, None),
        ("--out", "out", None, None, True, None),
    ],
    "grouped-sweep": [
        ("--k", "k", int, None, True, None),
        ("--out", "out", None, None, True, None),
    ],
    "optimize": [
        ("--n", "n", int, None, True, None),
        ("--t", "t", int, None, True, None),
    ],
    "demo": [
        ("--k", "k", int, None, True, None),
        ("--l", "l", int, None, True, None),
        ("--t", "t", int, None, True, None),
        ("--scheme", "scheme", None, "auto", False, SCHEMES),
        ("--g", "g", int, None, False, None),
        ("--p", "p", int, None, False, None),
        ("--seed", "seed", int, 0, False, None),
        ("--r", "r", int, None, False, None),
        ("--s", "s", int, 2, False, None),
        ("--tcols", "tcols", int, None, False, None),
    ],
    "audit": [
        ("--k", "k", int, None, True, None),
        ("--l", "l", int, None, True, None),
        ("--t", "t", int, None, True, None),
        ("--scheme", "scheme", None, "auto", False, SCHEMES),
        ("--g", "g", int, None, False, None),
        ("--p", "p", int, None, False, None),
        ("--exhaustive", "exhaustive", None, False, False, None),
        ("--zero-masks", "zero_masks", None, False, False, None),
    ],
}


def test_every_command_keeps_its_options():
    (commands,) = (
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert list(commands) == list(OPTIONS)
    for name, sub in commands.items():
        options = [
            (*action.option_strings, action.dest, action.type, action.default,
             action.required, action.choices)
            for action in sub._actions if not isinstance(action, argparse._HelpAction)
        ]
        assert options == OPTIONS[name], name
