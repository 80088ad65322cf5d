"""Smoke test of tools/replay_ab.py: one operation of this checkout, loaded
under two package names, split into its three times."""

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
            "pass": 2, "evaluate": 2, "recorded": 2}
        assert min(samples[label]["pass"]) > 0.0
    # the same sources make the same calls; each call evaluates whole panels
    assert tallies["old"] == tallies["new"]
    n_calls, points = tallies["new"]
    assert n_calls > 0 and points > 0 and points % 15 == 0
    lines = replay_ab.summary(samples, tallies)
    assert lines[:2] == [f"calls     {label:<4} {n_calls:6d} integrand calls {points:9d} points"
                         + ("  (+0.0%, +0.0%)" if label == "new" else "")
                         for label in ("old", "new")]
    assert [line.split()[:3] for line in lines[2:]] == [
        [name, label, "min"] for name in replay_ab.TIMES for label in ("old", "new")]
    assert all(line.endswith("%)") for line in lines[3::2])
