"""The paired A/B runner, tools/ab.py, run as a script on copies of the tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_reports_each_operation_and_voids_differing_outputs(tmp_path):
    # Two copies of src/gasp; the candidate's mds_audit reports its GV
    # verdict negated, which only the reproduce operation reads.  So
    # session, multiply, tables, probe and fallback get figures, and
    # reproduce is void.
    base, candidate, out = tmp_path / "base" / "gasp", tmp_path / "cand" / "gasp", tmp_path / "out"
    for tree in (base, candidate):
        shutil.copytree(ROOT / "src" / "gasp", tree, ignore=shutil.ignore_patterns("__pycache__"))
    harness = candidate / "harness.py"
    source = harness.read_text(encoding="utf-8")
    assert source.count('MdsAuditReport(verdicts["gv"]') == 1
    harness.write_text(
        source.replace('MdsAuditReport(verdicts["gv"]', 'MdsAuditReport(not verdicts["gv"]'),
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(base), str(candidate),
         "--out", str(out), "--rounds", "2"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base", "cand", "out"]
    assert [p.name for p in out.iterdir()] == ["ab.json"]
    report = json.loads((out / "ab.json").read_text(encoding="utf-8"))
    ops = report["ops"]
    assert list(ops) == ["session", "multiply", "reproduce", "tables", "probe", "fallback"]
    for op in ("session", "multiply", "tables", "probe", "fallback"):
        s = ops[op]
        assert s["rounds"] == 2 and not s["void"] and s["median_ratio"] > 0
        assert 0 <= s["candidate_faster"] <= 2
        assert s["interval_95"] is None  # the sign test needs 6 rounds
        # One round in each of the two interpreters, one per load order.
        orders = s["load_orders"]
        assert list(orders) == ["base_first", "candidate_first"]
        assert all(o["rounds"] == 1 and o["median_ratio"] > 0 for o in orders.values())
    assert ops["reproduce"]["void"] and ops["reproduce"]["median_ratio"] is None
    assert ops["reproduce"]["first_differing_round"] == -1  # the warm-up round
    assert all(o["median_ratio"] is None for o in ops["reproduce"]["load_orders"].values())
    assert "reproduce  VOID" in result.stdout
