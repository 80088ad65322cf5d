"""Smoke test of tools/compare_outputs.py: two operations of this checkout
against themselves, then against a record with one verdict and one file changed."""

import copy

import compare_outputs


def test_two_ops_match_themselves_and_a_change_shows():
    ops = [["diagnose", "--functional", "linear", "--h=1", "--delta", "0.1"],
           ["cm-check", "--n-samples", "1000"]]
    pkg = compare_outputs.load(compare_outputs.ROOT, "wienerlab_compare")
    lockstep = pkg.quadrature._lockstep
    old = compare_outputs.record(pkg, ops)
    new = compare_outputs.record(pkg, ops)
    assert pkg.quadrature._lockstep is lockstep
    assert compare_outputs.differences(old, new) == []
    assert [r["exit"] for r in new] == [0, 0]
    assert set(new[0]["files"]) == {"linear-diagnose.csv", "linear-diagnose.md"}
    assert "wrote <out>/linear-diagnose.csv" in new[0]["stdout"]
    assert len(new[0]["verdicts"]) > 10 and new[1]["verdicts"] == []
    changed = copy.deepcopy(new)
    changed[0]["verdicts"][3][3] += 1  # n_evals
    changed[1]["files"]["cm-check.csv"] += "\n"
    assert compare_outputs.differences(old, changed) == [
        "op 0 diagnose --functional linear --h=1 --delta 0.1: verdicts [3] of 1 (n_evals)",
        "op 1 cm-check --n-samples 1000: file cm-check.csv"]
    assert compare_outputs.certificate_changes(old, changed) == 0


def _verdict(status="diverged", value=None, abs_error=None, n_evals=100, evidence=None):
    return [status, value, abs_error, n_evals, "", evidence]


def _op(verdicts):
    return {"argv": ["op"], "exit": 0, "stdout": "", "stderr": "", "files": {},
            "verdicts": verdicts}


def test_names_the_verdict_fields_that_differ():
    records = [[1.0, 5.0, 5.0]], "magnitude_threshold"
    old = [_op([_verdict("converged", 1.0, 1e-9)] * 2 + [_verdict(evidence=records)] * 4)]
    new = [_op([_verdict("converged", 1.0, 1e-9)] * 2
               + [_verdict(n_evals=15, evidence=[[[1.0, 5.0, 6.0]], "magnitude_threshold"])] * 4)]
    assert compare_outputs.differences(old, new) == [
        "op 0 op: verdicts [2, 3, 4, 5] of 4 (n_evals, evidence)"]
    assert compare_outputs.certificate_changes(old, new) == 0


def test_counts_the_verdicts_whose_certificate_differs():
    old = [_op([_verdict("converged", 1.0, 1e-9), _verdict("converged", 2.0, 1e-9),
                _verdict("converged", 3.0, 1e-9), _verdict()]),
           _op([_verdict()]), _op([_verdict(), _verdict()])]
    new = [_op([_verdict("converged", 1.0, 2e-9), _verdict("converged", 2.5, 1e-9),
                _verdict("inconclusive"), _verdict(n_evals=1)]),
           _op([_verdict("converged", 0.0, 0.0)]), _op([_verdict()])]
    assert compare_outputs.differences(old, new) == [
        "op 0 op: verdicts [0, 1, 2, 3] of 4 (status, value, abs_error, n_evals)",
        "op 1 op: verdicts [0] of 1 (status, value, abs_error)",
        "op 2 op: verdicts"]
    # op 2's lists are not equally long, so no verdict of it is paired
    assert compare_outputs.certificate_changes(old, new) == 4
