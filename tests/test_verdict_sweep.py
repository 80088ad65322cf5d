"""Gate on tools/verdict_sweep.py: no count of wrong or missing certificates
may rise above the newest VERDICTS_*.json at the root of the repo, and no
recorded family may vanish or change its number of cases."""

import json

import verdict_sweep


def newest_record() -> dict:
    path = max(verdict_sweep.ROOT.glob("VERDICTS_*.json"),
               key=lambda p: int(p.stem.split("_")[1]))
    return json.loads(path.read_text(encoding="utf-8"))


def test_no_count_rises_above_the_newest_record():
    assert not verdict_sweep.regressions(verdict_sweep.sweep(), newest_record()["families"])


def synthetic(cases, **wrong):
    return {"cases": cases, **dict.fromkeys(verdict_sweep.WRONG, 0), **wrong}


class TestRegressions:
    RECORDED = {"a": synthetic(10, false_converged=2), "b": synthetic(5, inconclusive=1)}

    def test_equal_and_lower_counts_pass(self):
        assert verdict_sweep.regressions(self.RECORDED, self.RECORDED) == []
        lower = {"a": synthetic(10), "b": synthetic(5)}
        assert verdict_sweep.regressions(lower, self.RECORDED) == []

    def test_a_shrunk_family_fails(self):
        # losing the cases that were wrong lowers the counts, and still fails
        shrunk = {"a": synthetic(8), "b": synthetic(5, inconclusive=1)}
        assert verdict_sweep.regressions(shrunk, self.RECORDED) == ["a.cases: 8 != 10"]

    def test_a_vanished_family_fails(self):
        assert verdict_sweep.regressions({"a": synthetic(10, false_converged=2)},
                                         self.RECORDED) == ["b: missing"]

    def test_a_risen_count_fails(self):
        risen = {"a": synthetic(10, false_converged=3), "b": synthetic(5, inconclusive=1),
                 "new": synthetic(4, raised=1)}
        assert verdict_sweep.regressions(risen, self.RECORDED) == [
            "a.false_converged: 3 > 2", "new.raised: 1 > 0"]
