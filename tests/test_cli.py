"""Command-line behaviour: output, CSV determinism, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gasp.cli import main

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


def test_optimize_infeasible(capsys):
    code, _, err = run_cli(capsys, "optimize", "--n", "4", "--t", "2")
    assert code == 1
    assert "infeasible" in err


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


def test_module_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "gasp", "table", "--k", "3", "--l", "3", "--t", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "N = 18" in result.stdout


def test_demo_bad_divisibility(capsys):
    with pytest.raises(SystemExit) as err:
        main(["demo", "--k", "3", "--l", "3", "--t", "2", "--r", "4"])
    assert err.value.code == 2


def test_demo_infeasible_field(capsys):
    code, _, err = run_cli(
        capsys, "demo", "--k", "3", "--l", "3", "--t", "2", "--p", "17"
    )
    assert code == 1
    assert "error" in err


def test_audit_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--k", "3", "--l", "3", "--t", "2", "--p", "29"
    )
    assert code == 0
    assert "gv_det_nonzero=true" in out
    assert "p_mds=true" in out
    assert "q_mds=true" in out


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


def test_audit_budget_refusal(capsys):
    code, _, err = run_cli(
        capsys, "audit", "--k", "3", "--l", "3", "--t", "2", "--p", "29", "--exhaustive"
    )
    assert code == 1
    assert "refused" in err
