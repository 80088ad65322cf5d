"""Smoke test of tools/compare_outputs.py: two operations of this checkout
against themselves, then against a record with one verdict and one file changed."""

import copy
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_two_ops_match_themselves_and_a_change_shows():
    ops = [["diagnose", "--functional", "linear", "--h=1", "--delta", "0.1"],
           ["cm-check", "--n-samples", "1000"]]
    old = compare_outputs.run_checkout(ROOT, ops)
    new = compare_outputs.run_checkout(ROOT, ops)
    assert compare_outputs.differences(old, new) == []
    assert [r["exit"] for r in new] == [0, 0]
    assert set(new[0]["files"]) == {"linear-diagnose.csv", "linear-diagnose.md"}
    assert "wrote <out>/linear-diagnose.csv" in new[0]["stdout"]
    assert len(new[0]["verdicts"]) > 10 and new[1]["verdicts"] == []
    changed = copy.deepcopy(new)
    changed[0]["verdicts"][3][3] += 1  # n_evals
    changed[1]["files"]["cm-check.csv"] += "\n"
    assert compare_outputs.differences(old, changed) == [
        "op 0 diagnose --functional linear --h=1 --delta 0.1: verdicts [3] of 1",
        "op 1 cm-check --n-samples 1000: file cm-check.csv"]
