"""Smoke test of tools/replay_ab.py: one operation of this checkout, loaded
under two package names, split into its three times."""

import pytest
import replay_ab


def test_one_op_splits_its_pass_and_restores_evaluate():
    pkgs = {"old": replay_ab.load(replay_ab.ROOT, "wienerlab_replay_old"),
            "new": replay_ab.load(replay_ab.ROOT, "wienerlab_replay_new")}
    assert pkgs["old"].quadrature is not pkgs["new"].quadrature
    ops = [["diagnose", "--functional", "linear", "--h=1", "--delta", "0.1"]]
    samples, tallies = replay_ab.measure(pkgs, ops, reps=2)
    for label, pkg in pkgs.items():
        assert pkg.quadrature._evaluate.__name__ == "_evaluate"
        assert {name: len(s) for name, s in samples[label].items()} == {
            "pass": 2, "evaluate": 2, "recorded": 2, "kernel": 2}
        assert min(samples[label]["pass"]) > 0.0 and min(samples[label]["kernel"]) > 0.0
    # the same sources make the same calls; each call evaluates whole panels
    assert tallies["old"] == tallies["new"]
    n_calls, points = tallies["new"]
    assert n_calls > 0 and points > 0 and points % 15 == 0
    lines = replay_ab.summary(samples, tallies)
    assert lines[:2] == [f"calls     {label:<4} {n_calls:6d} integrand calls {points:9d} points"
                         + ("  (+0.0%, +0.0%)" if label == "new" else "")
                         for label in ("old", "new")]
    # per time: the old and new lines, then the paired line
    assert [line.split()[:3] for line in lines[2:]] == [
        fields for name in replay_ab.TIMES
        for fields in ([name, "old", "q1"], [name, "new", "q1"], [name, "new/old", "paired"])]
    assert all(line.endswith("%)") for line in lines[3::3])
    assert all(line.endswith(" of 2 reps") for line in lines[4::3])


def test_summary_prints_the_quartiles_and_median():
    # five passes of 1..5 ms and 2..10 ms: q1, median and q3 by the inclusive
    # method, and the change of the median; no minimum
    samples = {label: {name: [scale * k / 1e3 for k in (3, 1, 5, 2, 4)]
                       for name in replay_ab.TIMES}
               for label, scale in (("old", 1.0), ("new", 2.0))}
    lines = replay_ab.summary(samples, {"old": (10, 150), "new": (5, 75)})
    assert lines[1].endswith("(-50.0%, -50.0%)")
    assert lines[2] == "pass      old  q1      2.00  median      3.00  q3      4.00"
    assert lines[3] == "pass      new  q1      4.00  median      6.00  q3      8.00  (+100.0%)"
    assert lines[4] == "pass      new/old paired median 2.000 (+100.0%), new faster in 0 of 5 reps"
    assert all("min" not in line for line in lines)


def test_the_paired_line_compares_within_each_rep():
    # the machine slows down over the reps, and new is 10% faster in 4 reps of
    # 5: the medians overlap, the pairs show it
    old = [10.0, 12.0, 14.0, 16.0, 18.0]
    new = [9.0, 10.8, 12.6, 14.4, 19.8]
    samples = {"old": {name: [t / 1e3 for t in old] for name in replay_ab.TIMES},
               "new": {name: [t / 1e3 for t in new] for name in replay_ab.TIMES}}
    lines = replay_ab.summary(samples, {"old": (1, 15), "new": (1, 15)})
    assert lines[4] == "pass      new/old paired median 0.900 (-10.0%), new faster in 4 of 5 reps"


def test_each_time_is_scaled_by_the_kernel_runs_around_it(monkeypatch):
    # fn i takes 0.1 s; the kernel runs before fn 0, between the fns and after
    # the last: each time is scaled by 2 REFERENCE_S / (before + after)
    kernels = iter([0.03, 0.06, 0.015, 0.03])
    monkeypatch.setattr(replay_ab.calibrate, "kernel_s",
                        lambda kind: next(kernels) if kind == "interp" else 1 / 0)
    monkeypatch.setattr(replay_ab, "cpu", lambda fn: (fn(), 0.1)[1])
    ran = []
    got = replay_ab.calibrated({name: lambda name=name: ran.append(name)
                                for name in ("recorded", "pass", "evaluate")})
    ref = 2.0 * replay_ab.calibrate.REFERENCE_S["interp"]
    assert ran == ["recorded", "pass", "evaluate"]
    assert got == pytest.approx({"recorded": 0.1 * ref / 0.09, "pass": 0.1 * ref / 0.075,
                                 "evaluate": 0.1 * ref / 0.045, "kernel": 0.03}, rel=1e-15)
    # a machine twice as slow doubles both the time and the kernel: the scaled time stays
    kernels = iter([0.06, 0.12])
    monkeypatch.setattr(replay_ab, "cpu", lambda fn: 0.2)
    assert replay_ab.calibrated({"pass": None}) == pytest.approx(
        {"pass": 0.1 * ref / 0.09, "kernel": 0.09}, rel=1e-15)
