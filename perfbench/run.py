"""Benchmark of wienerlab's three user paths, run from the root of a checkout.

    python3 perfbench/run.py --workload {thm31-report,thm33-report,cm-check}
                             --seed N --seconds S --trace {0,1}

One single-threaded process runs the workload's operations in a closed loop:
each is an in-process `wienerlab.cli.main([...])`, the code the console script
runs, and the next starts only after the previous one returns.  Whole passes
over the workload's fixed operation list run until S seconds have gone by.
Every operation's evidence file is then checked against references computed
apart from the program (checks.py).

--trace 0 prints the end-to-end metrics: setup_s, op_s_p50, ops_per_s and
peak_rss_mb.  The times are the process's CPU time (user + system), which
leaves out the bursts in which the host gives the CPU to other guests,
scaled to a reference speed of the machine: a fixed kernel (calibrate.py)
runs before every operation, and each operation's time is scaled by the
kernel's reference time over its mean time just before and just after the
operation.  Each set-up probe scales its own time the same way.  The
unscaled CPU times and the wall times go to standard error.

--trace 1 runs every operation once plain and once traced and prints the
per-layer metrics taken from the spans (tracer.py), the tracing overhead and
the integrand cost per call at fixed batch sizes.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# numpy links a multi-threaded BLAS; the benchmark measures one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WIENERLAB_OUT", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
OUT_DIR = "perfbench-out"
MICRO_SIZES = (15, 240, 1920)
MICRO_CALLS = 60
# the reference kernel shaped like each workload's hot loop (calibrate.py)
KERNEL = {"thm31-report": "interp", "thm33-report": "interp", "cm-check": "bulk"}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program(root: Path):
    """Import wienerlab.cli from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "wienerlab" / "cli.py").is_file():
        _fail(f"no wienerlab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import wienerlab
    import wienerlab.cli
    if Path(wienerlab.__file__).resolve().parent != (src / "wienerlab").resolve():
        _fail(f"imported wienerlab from {wienerlab.__file__}, not from {src}")
    return wienerlab


def measure_setup(root: Path, workload: str, seed: int) -> list:
    """SETUP_PROBES fresh interpreters, each timing import + building the inputs.

    They inherit this process's environment, BLAS threads set to 1 included.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(root), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=root)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Record(NamedTuple):
    index: int          # position in the workload's operation list
    code: int           # CLI exit code
    seconds: float      # wall time of the call
    cpu_seconds: float  # CPU time of the call
    csv_text: str
    bytes_written: int  # CSV + Markdown
    traced: bool
    kernel_s: float     # CPU time of the reference kernel run just before the call


class Runner:
    """Runs operations through wienerlab.cli.main and keeps what the checks need."""

    def __init__(self, cli, workload: str, out: Path, kernel: str):
        self.cli = cli
        self.out = out
        self.stem = workload          # the CLI names its evidence files after the command
        self.kernel = kernel
        self.records = []

    def run(self, index: int, op, tracer=None) -> None:
        argv = list(op.argv) + ["--out", str(self.out)]
        kernel_s = calibrate.kernel_s(self.kernel)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0, c0 = time.perf_counter(), time.process_time()
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.span("cli.main", "cli", self.cli.main, argv)
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        csv_path = self.out / f"{self.stem}.csv"
        md_path = self.out / f"{self.stem}.md"
        csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        written = sum(p.stat().st_size for p in (csv_path, md_path) if p.exists())
        for p in (csv_path, md_path):
            p.unlink(missing_ok=True)
        self.records.append(Record(index, code, elapsed, cpu, csv_text, written,
                                   tracer is not None, kernel_s))


def run_passes(runner: Runner, ops, seconds: float, tracer=None) -> None:
    """Whole passes over ops until `seconds` have gone by.

    With a tracer, every operation runs twice in a row, once plain and once
    traced, in an order that alternates between passes: the overhead is then
    taken from pairs that saw the same state of the machine.  The wrappers are
    installed only around the traced calls.
    """
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            if tracer is None:
                runner.run(i, op)
                continue
            for traced in ((False, True) if passes % 2 == 0 else (True, False)):
                if traced:
                    with tracer.active():
                        runner.run(i, op, tracer)
                else:
                    runner.run(i, op)
        passes += 1


def check_outputs(workload: str, ops, records):
    """Independent checks of every recorded operation.

    Returns the failure count and, summed over the traced records, the
    verdicts that checks.py counts instead of failing.
    """
    import checks

    refs = {}
    failed = 0
    tally = {"false_converged": 0, "false_diverged": 0}
    for rec in records:
        op = ops[rec.index]
        errors = [] if rec.code == 0 else [f"exit code {rec.code}"]
        if rec.index not in refs:
            refs[rec.index] = checks.reference(workload, op.params)
        found, counted = checks.check(workload, op.params, rec.csv_text, refs[rec.index])
        errors += found
        if rec.traced:
            for key, n in counted.items():
                tally[key] += n
        if errors:
            failed += 1
            print(f"FAILED {shlex.join(('wienerlab',) + op.argv)}: {'; '.join(errors)}",
                  file=sys.stderr)
    return failed, tally


def slot_median(records, field: str) -> float:
    """Median over the operation list of each operation's median over the passes.

    Every operation runs once per pass, so this is the median operation.  A
    plain median of all records lands, for an even-length list, between the
    slowest copy of one operation and the fastest copy of the next.
    """
    by_index = {}
    for r in records:
        by_index.setdefault(r.index, []).append(getattr(r, field))
    return statistics.median(statistics.median(v) for v in by_index.values())


def scaled(records, kernel: str, final_kernel_s: float) -> list:
    """The records with each CPU time scaled to the kernel's reference speed.

    The speed at a call is read from the kernel runs just before and just
    after it (calibrate.py).
    """
    ref = calibrate.REFERENCE_S[kernel]
    after = [r.kernel_s for r in records[1:]] + [final_kernel_s]
    return [r._replace(cpu_seconds=r.cpu_seconds * 2.0 * ref / (r.kernel_s + k))
            for r, k in zip(records, after)]


def end_to_end(records, setup, kernel: str, final_kernel_s: float) -> dict:
    timed = scaled(records, kernel, final_kernel_s)
    ref = calibrate.REFERENCE_S["interp"]
    setup_s = statistics.median((s["import_s"] + s["build_s"]) * ref / s["kernel_s"]
                                for s in setup)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cpu = [r.cpu_seconds for r in records]
    wall = [r.seconds for r in records]
    print(f"unscaled CPU time: op p50 {slot_median(records, 'cpu_seconds'):.4f} s, "
          f"{len(cpu) / sum(cpu):.4f} ops/s, set-up p50 "
          f"{statistics.median(s['import_s'] + s['build_s'] for s in setup):.4f} s; "
          f"{kernel} kernel p50 {1e3 * statistics.median(r.kernel_s for r in records):.2f} ms",
          file=sys.stderr)
    print(f"wall time: op p50 {slot_median(records, 'seconds'):.4f} s, "
          f"{len(wall) / sum(wall):.4f} ops/s, set-up p50 "
          f"{statistics.median(s['wall_s'] for s in setup):.4f} s", file=sys.stderr)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s_p50": {"value": slot_median(timed, "cpu_seconds"), "unit": "s"},
        "ops_per_s": {"value": len(timed) / sum(r.cpu_seconds for r in timed), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def integrand_us_per_call(wienerlab) -> dict:
    """us per log_eval call of the centred L^2 residual integrand, per batch size."""
    import numpy as np
    from wienerlab.diagnostics import diffquot_pow_integrand

    cases = {
        "thm31": (wienerlab.catalog_build("thm31", a=2.0), 0.125, (-4.0, 12.0)),
        "thm33": (wienerlab.catalog_build("thm33", eta=1e-4, mu=2e-4), 1.0 / 2 ** 14,
                  (-1e-4, 5e-4)),
    }
    out = {}
    for name, (f, eps, (lo, hi)) in cases.items():
        g = diffquot_pow_integrand(f, 2.0, eps, 1.0, centered=True)
        for n in MICRO_SIZES:
            x = np.linspace(lo, hi, n + 2)[1:-1]
            g.log_eval(x)
            samples = []
            for _ in range(MICRO_CALLS):
                t0 = time.perf_counter()
                g.log_eval(x)
                samples.append(time.perf_counter() - t0)
            out[f"integrand.{name}.us_per_call.n{n}"] = {
                "value": 1e6 * statistics.median(samples), "unit": "us"}
    return out


def per_layer(tracer, records, setup, micro, tally) -> dict:
    """Per-operation means over the traced passes, plus the tracing overhead.

    Span times are wall times; the overhead compares CPU times, as the
    end-to-end metrics do.
    """
    from tracer import CALLS, OUTER_CALLS, OUTER_S, SELF_S

    traced = [r.cpu_seconds for r in records if r.traced]
    untraced = [r.cpu_seconds for r in records if not r.traced]
    n = len(traced)
    c = tracer.counts
    layers = tracer.layers

    def per_op(x):
        return x / n

    def m(value, unit):
        return {"value": value, "unit": unit}

    verdicts = c["quadrature.verdicts"]
    f_self = layers["functionals"][SELF_S]
    metrics = {
        "cli.import_s": m(statistics.median(s["import_s"] for s in setup), "s"),
        "cli.bytes_written": m(per_op(sum(r.bytes_written for r in records if r.traced)),
                               "bytes"),
        "diagnostics.emit_s": m(per_op(tracer.stage_s(
            "report_evidence_rows", "rows_to_csv", "report_to_markdown")), "s"),
        "counterexamples.build_s": m(per_op(tracer.stage_s("catalog_build")), "s"),
        "diagnostics.seminorm_s": m(per_op(tracer.stage_s("sobolev_seminorm")), "s"),
        "diagnostics.lq_s": m(per_op(tracer.stage_s("lq_diffquot_norm",
                                                    parents={"membership_report"})), "s"),
        "diagnostics.ssgd_self_s": m(per_op(tracer.stage_s("ssgd_test")), "s"),
        "diagnostics.dvp_s": m(per_op(tracer.stage_s("dvp_uniform_integrability_test")), "s"),
        "diagnostics.rows": m(per_op(c["diagnostics.rows"]), "count"),
        "quadrature.verdicts": m(per_op(verdicts), "count"),
        "quadrature.points": m(per_op(c["quadrature.points"]), "count"),
        "quadrature.points_per_verdict": m(c["quadrature.points"] / verdicts if verdicts else 0.0,
                                           "count"),
        "quadrature.self_s": m(per_op(layers["quadrature"][OUTER_S]
                                      - c["integrand.s_in_quadrature"]), "s"),
        "quadrature.integrand_s": m(per_op(c["integrand.s_in_quadrature"]), "s"),
        "quadrature.converged": m(per_op(c["quadrature.converged"]), "count"),
        "quadrature.diverged": m(per_op(c["quadrature.diverged"]), "count"),
        "quadrature.inconclusive": m(per_op(c["quadrature.inconclusive"]), "count"),
        "quadrature.false_converged": m(per_op(tally["false_converged"]), "count"),
        "quadrature.false_diverged": m(per_op(tally["false_diverged"]), "count"),
        "functionals.calls": m(per_op(layers["functionals"][CALLS]), "count"),
        "functionals.points": m(per_op(c["functionals.points"]), "count"),
        "functionals.self_s": m(per_op(f_self), "s"),
        "functionals.us_per_point": m(1e6 * f_self / c["functionals.points"]
                                      if c["functionals.points"] else 0.0, "us"),
        "slog.calls": m(per_op(layers["slog"][OUTER_CALLS]), "count"),
        "slog.s": m(per_op(layers["slog"][OUTER_S]), "s"),
        "wiener.sample_s": m(per_op(tracer.stage_s("sample_increments")), "s"),
        "wiener.integral_s": m(per_op(tracer.stage_s(
            "wiener_integral_batch", "girsanov_log_weight_batch")), "s"),
        "functionals.poly_s": m(per_op(layers["poly"][OUTER_S]), "s"),
        "wiener.paths": m(per_op(c["wiener.paths"]), "count"),
        "wiener.increments_mb": m(per_op(c["wiener.increments_mb"]), "MB-computed"),
        "trace.ops_per_s": m(n / sum(traced), "1/s"),
        "trace.untraced_ops_per_s": m(len(untraced) / sum(untraced), "1/s"),
        "trace.overhead_pct": m(100.0 * (sum(traced) / n) / (sum(untraced) / len(untraced))
                                - 100.0, "%"),
    }
    metrics.update(micro)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    wienerlab = load_program(root)
    ops = workloads.build(args.workload, args.seed)
    setup = measure_setup(root, args.workload, args.seed)

    (root / OUT_DIR).mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / OUT_DIR))
    try:
        kernel = KERNEL[args.workload]
        runner = Runner(wienerlab.cli, args.workload, out, kernel)
        runner.run(0, ops[0])            # warm-up, outside the timing
        runner.records.clear()
        correct = True
        if args.trace:
            from tracer import Tracer
            micro = integrand_us_per_call(wienerlab)
            tracer = Tracer(wienerlab)
            run_passes(runner, ops, args.seconds, tracer)
            failed, tally = check_outputs(args.workload, ops, runner.records)
            metrics = per_layer(tracer, runner.records, setup, micro, tally)
            trace_path = root / OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            # children must nest inside their parent: 0 <= self time <= span
            if tracer.min_self_s < 0.0:
                print(f"a span's children outlast it by {-tracer.min_self_s:g} s",
                      file=sys.stderr)
                correct = False
        else:
            run_passes(runner, ops, args.seconds)
            metrics = end_to_end(runner.records, setup, kernel, calibrate.kernel_s(kernel))   # before the checks load sympy
            failed, _ = check_outputs(args.workload, ops, runner.records)
        attempted = len(runner.records)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
