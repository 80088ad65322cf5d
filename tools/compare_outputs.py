"""Compare what two checkouts of wienerlab output, operation by operation.

    python tools/compare_outputs.py OLD_CHECKOUT [NEW_CHECKOUT]

NEW_CHECKOUT defaults to the checkout this file belongs to.  Both run the
same operations through wienerlab.cli.main, each checkout in one fresh
interpreter that imports wienerlab from the checkout's src/.  The operations
are the op lists of the three benchmark workloads (perfbench/workloads.py of
this checkout, read and not changed) for the seeds in SEEDS, then EDGE_OPS.

For every operation it records the exit code, standard output and standard
error (with the output directory and the checkout's src/ masked), the bytes
of every file written, and the fields of every verdict that a
quadrature._lockstep call returns (status, value, abs_error, n_evals,
message, evidence).  It prints the operations that differ, with the verdict
fields that differ, and a totals line that counts the verdicts whose
status, value or abs_error differ; it exits 1 if any op differs, 0 if all
are equal.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (41, 97, 7)
# the default reports, and reports that reach the rarer verdicts and exits
EDGE_OPS = (
    ("reproduce-thm31",),
    ("reproduce-thm33",),
    ("diagnose", "--functional", "linear"),
    ("reproduce-thm31", "--a", "6", "--h=0.5,-0.5"),
    ("reproduce-thm31", "--a", "1.6"),
    ("reproduce-thm31", "--a", "7"),
    ("reproduce-thm31", "--budget", "1"),
    ("diagnose", "--functional", "linear", "--p", "30"),
    ("diagnose", "--functional", "thm31", "--p", "3"),
    ("reproduce-thm33", "--h=0.3,-2.5", "--atol", "1e-12"),
    ("reproduce-thm33", "--eta", "7.719e-05", "--mu", "0.0001955", "--h=1.01,-0.978"),
    ("reproduce-thm33", "--budget", "50"),
    ("diagnose", "--functional", "thm33", "--p", "2.5", "--q", "1.2"),
)
FIELDS = ("exit", "stdout", "stderr", "files", "verdicts")
VERDICT_FIELDS = ("status", "value", "abs_error", "n_evals", "message", "evidence")
CERTIFICATE = {"status", "value", "abs_error"}  # what a verdict certifies


def default_ops() -> list:
    """The workload op lists of every seed, then the edge ops, as argv lists."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    ops = [list(op.argv) for seed in SEEDS for name in workloads.WORKLOADS
           for op in workloads.build(name, seed)]
    return ops + [list(op) for op in EDGE_OPS]


def _verdicts(obj):
    """The verdict fields of every IntegralVerdict inside a _lockstep result."""
    if hasattr(obj, "status") and hasattr(obj, "n_evals"):
        ev = obj.evidence
        yield [obj.status, obj.value, obj.abs_error, obj.n_evals, obj.message,
               ev and [[list(r) for r in ev.records], ev.reason]]
    elif dataclasses.is_dataclass(obj):
        for fld in dataclasses.fields(obj):
            yield from _verdicts(getattr(obj, fld.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _verdicts(item)


def record(checkout: Path, ops) -> list:
    """Run ops in this interpreter against checkout's wienerlab; one record per op."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import wienerlab.cli as cli
    from wienerlab import quadrature
    if Path(cli.__file__).resolve().parent != src / "wienerlab":
        raise SystemExit(f"imported wienerlab from {cli.__file__}, not from {src}")
    verdicts = []
    lockstep = quadrature._lockstep

    def recording(jobs):
        results = lockstep(jobs)
        verdicts.extend(_verdicts(results))
        return results

    quadrature._lockstep = recording
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(ops):
            out = Path(tmp) / f"op{i}"
            verdicts.clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            # catch_warnings resets the once-per-location registries, as a fresh process has them
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings():
                try:
                    code = cli.main(list(argv) + ["--out", str(out)])
                except SystemExit as exc:
                    code = f"SystemExit({exc.code!r})"
                except Exception as exc:  # recorded: the other checkout may raise it too
                    code = f"{type(exc).__name__}: {exc}"

            files = {str(p.relative_to(out)): p.read_bytes().decode("latin-1")
                     for p in sorted(out.rglob("*")) if p.is_file()} if out.exists() else {}
            stdout, stderr = (s.getvalue().replace(str(out), "<out>").replace(str(src), "<src>")
                              for s in (stdout, stderr))
            records.append({"argv": list(argv), "exit": code, "stdout": stdout,
                            "stderr": stderr, "files": files, "verdicts": list(verdicts)})
    return records


def run_checkout(checkout: Path, ops) -> list:
    """record(checkout, ops) in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in ("WIENERLAB_OUT", "PYTHONPATH")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--record",
                           str(checkout)], input=json.dumps(ops), capture_output=True,
                          text=True, env=env, cwd=checkout, check=False)
    if done.returncode != 0:
        raise SystemExit(f"recording {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def verdict_changes(a: list, b: list) -> list:
    """(index, names of the fields that differ) per differing verdict of two
    equally long verdict lists."""
    changes = []
    for j, (u, v) in enumerate(zip(a, b)):
        names = [name for name, x, y in zip(VERDICT_FIELDS, u, v)
                 if json.dumps(x) != json.dumps(y)]
        if names:
            changes.append((j, names))
    return changes


def certificate_changes(old: list, new: list) -> int:
    """The verdicts whose status, value or abs_error differ, over all ops
    whose verdict lists are equally long."""
    return sum(bool(CERTIFICATE.intersection(names))
               for a, b in zip(old, new) if len(a["verdicts"]) == len(b["verdicts"])
               for _, names in verdict_changes(a["verdicts"], b["verdicts"]))


def differences(old: list, new: list) -> list:
    """One line per op whose records differ, naming the fields that differ and,
    for verdicts, the verdict fields."""
    lines = []
    for i, (a, b) in enumerate(zip(old, new)):
        diff = []
        for key in FIELDS:
            if key == "files":
                names = sorted(set(a[key]) | set(b[key]))
                diff += [f"file {n}" for n in names if a[key].get(n) != b[key].get(n)]
            elif key == "verdicts" and len(a[key]) == len(b[key]):
                changes = verdict_changes(a[key], b[key])
                if changes:
                    names = {name for _, ns in changes for name in ns}
                    fields = ", ".join(n for n in VERDICT_FIELDS if n in names)
                    diff.append(f"verdicts {[j for j, _ in changes[:5]]} of {len(changes)}"
                                f" ({fields})")
            elif json.dumps(a[key]) != json.dumps(b[key]):
                diff.append(key)
        if diff:
            lines.append(f"op {i} {' '.join(a['argv'])}: {', '.join(diff)}")
    if len(old) != len(new):
        lines.append(f"{len(old)} ops against {len(new)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the checkout to compare against")
    parser.add_argument("new", type=Path, nargs="?", default=ROOT,
                        help="the checkout to check (default: this one)")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:  # the child: ops on stdin, records on stdout
        records = record(args.old, json.load(sys.stdin))
        json.dump(records, sys.stdout)
        return 0
    ops = default_ops()
    old, new = run_checkout(args.old, ops), run_checkout(args.new, ops)
    lines = differences(old, new)
    for line in lines:
        print(line)
    n_verdicts = sum(len(r["verdicts"]) for r in new)
    n_files = sum(len(r["files"]) for r in new)
    verdict = f"{len(lines)} op(s) differ" if lines else "all equal"
    print(f"{len(ops)} ops, {n_files} files, {n_verdicts} verdicts "
          f"({certificate_changes(old, new)} with a different status, value or abs_error): "
          f"{verdict}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
