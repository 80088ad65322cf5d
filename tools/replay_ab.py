"""Split the time of one benchmark pass between the integrand and the rest, for
two checkouts side by side.

    python tools/replay_ab.py OLD_CHECKOUT [NEW_CHECKOUT] --workload W --seed S --reps N

NEW_CHECKOUT defaults to the checkout this file belongs to.  Both checkouts'
src/wienerlab are imported into this one interpreter, under distinct package
names.  The operations are one pass of the benchmark workload W at seed S
(perfbench/workloads.py of this checkout, read and not changed), each
through the package's cli.main with its output in a temporary directory.

A recording pass per checkout keeps the arguments and the result of every
quadrature._evaluate call.  Then N times, the two checkouts in turn (the
first one alternating), it takes the CPU time of

  pass      the whole pass;
  evaluate  the recorded _evaluate calls replayed alone: the integrand
            bodies and the Gauss-Kronrod sums;
  recorded  the pass with every _evaluate call answered from the record:
            drivers, scheduler, diagnostics and emission;

and prints the min, q1 and median of each, in milliseconds, the checkouts'
lines interleaved.  Before the times it prints each checkout's integrand
calls and points per pass, counted in its recording pass, so a change in
the number of calls shows beside the times.  It tells which layer a saving
comes from.  It is not a benchmark: perfbench/run.py is, and the perfbench
tracer sees only the single-verdict functions, not a report's pooled
scheduler run.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

from compare_outputs import ROOT, load, run_op, workload_ops, workloads

TIMES = ("pass", "evaluate", "recorded")


def run_pass(pkg, ops, out: str) -> None:
    for i, argv in enumerate(ops):
        run_op(pkg.cli, argv, Path(out) / f"op{i}")


@contextlib.contextmanager
def evaluate_as(pkg, fn):
    """pkg.quadrature._evaluate replaced by fn(real_evaluate, fam, requests)."""
    quad = pkg.quadrature
    real = quad._evaluate
    quad._evaluate = lambda fam, requests: fn(real, fam, requests)
    try:
        yield real
    finally:
        quad._evaluate = real


def record(pkg, ops, out: str) -> list:
    """(fam, requests, result or the error raised) of every _evaluate call of one pass."""
    calls = []

    def recording(real, fam, requests):
        try:
            result = real(fam, requests)
        except Exception as exc:
            calls.append((fam, requests, exc))
            raise
        calls.append((fam, requests, result))
        return result

    with evaluate_as(pkg, recording):
        run_pass(pkg, ops, out)
    return calls


def tally(calls) -> tuple:
    """(integrand calls, points) of a recorded pass: 15 points per panel."""
    return len(calls), sum(15 * len(request[1]) for _, requests, _ in calls
                           for request in requests)


def cpu(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def times(pkg, ops, calls, out: str) -> dict:
    """The CPU seconds of the pass, of its _evaluate calls alone and of the
    pass answered from calls."""
    real = pkg.quadrature._evaluate

    def evaluate():
        for fam, requests, _ in calls:
            try:
                real(fam, requests)
            except Exception:
                pass

    answers = iter(calls)
    extra = []

    def answer(_, fam, requests):
        call = next(answers, None)
        if call is None:
            extra.append(requests)
            raise RuntimeError("no recorded answer left")
        if isinstance(call[2], Exception):
            raise call[2]
        return call[2]

    with evaluate_as(pkg, answer):
        recorded = cpu(lambda: run_pass(pkg, ops, out))
    if extra or next(answers, None) is not None:
        raise SystemExit("the pass answered from the record made other _evaluate calls")
    return {"pass": cpu(lambda: run_pass(pkg, ops, out)), "evaluate": cpu(evaluate),
            "recorded": recorded}


def measure(pkgs: dict, ops, reps: int) -> tuple:
    """{label: {time: [seconds per rep]}} for each package, the packages in
    turn, and {label: (integrand calls, points)} of each recording pass."""
    samples = {label: {name: [] for name in TIMES} for label in pkgs}
    with tempfile.TemporaryDirectory() as out:
        calls = {label: record(pkg, ops, out) for label, pkg in pkgs.items()}
        order = list(pkgs)
        for rep in range(reps):
            for label in order if rep % 2 == 0 else order[::-1]:
                for name, seconds in times(pkgs[label], ops, calls[label], out).items():
                    samples[label][name].append(seconds)
    return samples, {label: tally(recorded) for label, recorded in calls.items()}


def summary(samples: dict, tallies: dict) -> list:
    """One line per package with its integrand calls and points per pass,
    then one per time and package: min, q1 and median in ms; each with its
    change against the first package."""
    lines = []
    base = None
    for label, (n_calls, points) in tallies.items():
        line = f"{'calls':<9} {label:<4} {n_calls:6d} integrand calls {points:9d} points"
        if base is None:
            base = n_calls, points
        elif min(base) > 0:
            line += (f"  ({100.0 * (n_calls / base[0] - 1.0):+.1f}%,"
                     f" {100.0 * (points / base[1] - 1.0):+.1f}%)")
        lines.append(line)
    for name in TIMES:
        base = None
        for label, by_time in samples.items():
            ms = sorted(1e3 * s for s in by_time[name])
            q1 = statistics.quantiles(ms, n=4, method="inclusive")[0] if len(ms) > 1 else ms[0]
            median = statistics.median(ms)
            line = f"{name:<9} {label:<4} min {ms[0]:9.2f}  q1 {q1:9.2f}  median {median:9.2f}"
            if base is None:
                base = median
            elif base > 0.0:
                line += f"  ({100.0 * (median / base - 1.0):+.1f}%)"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the checkout to compare against")
    parser.add_argument("new", type=Path, nargs="?", default=ROOT,
                        help="the checkout to check (default: this one)")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    pkgs = {"old": load(args.old, "wienerlab_old"), "new": load(args.new, "wienerlab_new")}
    samples, tallies = measure(pkgs, workload_ops(args.workload, args.seed), args.reps)
    print(f"{args.workload} seed {args.seed}, {args.reps} reps, per pass")
    for line in summary(samples, tallies):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
