"""Compare what two checkouts of wienerlab output, operation by operation.

    python tools/compare_outputs.py OLD_CHECKOUT [NEW_CHECKOUT]

NEW_CHECKOUT defaults to the checkout this file belongs to.  Both checkouts'
src/wienerlab are imported into this one interpreter under distinct package
names (load), and each runs the same operations through its cli.main
(run_op).  The operations are the op lists of the three benchmark workloads
(perfbench/workloads.py of this checkout, read and not changed) for the
seeds in SEEDS, then EDGE_OPS.

For every operation it records the exit code, standard output and standard
error (with the output directory and the checkout's src/ masked), the bytes
of every file written, and the fields of every verdict that a
quadrature._lockstep call returns (status, value, abs_error, n_evals,
message, evidence).  It prints the operations that differ, with the verdict
fields that differ, and a totals line that counts the verdicts whose
status, value or abs_error differ; it exits 1 if any op differs, 0 if all
are equal.  Then, for each op whose CSV rows differ, it lists every row
whose verdict changed (row key, old -> new), and the largest |value change|
/ abs_error over the rows whose verdict stayed (abs_error the larger of the
two rows'), so a change that may move values within their certified
error shows how far each op's values moved.  Its last line counts the ops
whose only difference is the n_evals of their verdicts, with the sum of
those n_evals old -> new, so a change that only saves work reads as such.

The other tools import load, run_op, workload_ops and default_ops from here.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, read and not changed)

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
    ("diagnose", "--functional", "linear", "--eps-grid", "2..5", "--h=1"),
    ("reproduce-thm31", "--h=1,x"),  # a usage error: exit 64 through _Parser.error
    # residual rows on both sides of the declared origin's boundary: q = 2
    # (sigma = -1, lam = 6) runs, q = 3 (sigma = -1.5) is decided
    ("diagnose", "--functional", "thm33", "--p", "3"),
)
FIELDS = ("exit", "stdout", "stderr", "files", "verdicts")
VERDICT_FIELDS = ("status", "value", "abs_error", "n_evals", "message", "evidence")
CERTIFICATE = {"status", "value", "abs_error"}  # what a verdict certifies


def load(checkout: Path, name: str):
    """checkout's src/wienerlab imported as the package `name`, with its cli."""
    # numpy links a multi-threaded BLAS: one thread, as perfbench measures, if numpy is not in yet
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pkg_dir = (checkout / "src" / "wienerlab").resolve()
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"no wienerlab sources under {checkout / 'src'}")
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    pkg = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")
    return pkg


def run_op(cli, argv, out) -> tuple:
    """cli.main(argv + ["--out", out]) with its output captured: (exit, stdout,
    stderr).  The exit is the code main returns, or the text of what it raised."""
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
    return code, stdout.getvalue(), stderr.getvalue()


def workload_ops(workload: str, seed: int) -> list:
    """The argv lists of one pass of the benchmark workload at seed."""
    return [list(op.argv) for op in workloads.build(workload, seed)]


def default_ops() -> list:
    """The workload op lists of every seed, then the edge ops, as argv lists."""
    return [argv for seed in SEEDS for name in workloads.WORKLOADS
            for argv in workload_ops(name, seed)] + [list(op) for op in EDGE_OPS]


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


def record(pkg, ops) -> list:
    """Run ops through pkg.cli, a package that load imported; one record per op."""
    src = str(Path(pkg.__file__).parents[1])
    verdicts = []
    lockstep = pkg.quadrature._lockstep

    def recording(jobs):
        results = lockstep(jobs)
        verdicts.extend(_verdicts(results))
        return results

    pkg.quadrature._lockstep = recording
    records = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i, argv in enumerate(ops):
                out = Path(tmp) / f"op{i}"
                verdicts.clear()
                code, stdout, stderr = run_op(pkg.cli, argv, out)
                files = {str(p.relative_to(out)): p.read_bytes().decode("latin-1")
                         for p in sorted(out.rglob("*")) if p.is_file()} if out.exists() else {}
                stdout, stderr = (s.replace(str(out), "<out>").replace(src, "<src>")
                                  for s in (stdout, stderr))
                records.append({"argv": list(argv), "exit": code, "stdout": stdout,
                                "stderr": stderr, "files": files, "verdicts": list(verdicts)})
    finally:
        pkg.quadrature._lockstep = lockstep
    return records


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


def csv_rows(files: dict) -> dict:
    """{(file, quantity, q, epsilon, n): (verdict, value, abs_error)} over the
    CSV files of a record, n counting the rows of the same key before it."""
    rows, seen = {}, collections.Counter()
    for name, text in sorted(files.items()):
        if name.endswith(".csv"):
            for line in text.splitlines()[2:]:  # after the schema and header lines
                quantity, q, eps, status, value, abs_error = line.split(",")
                key = name, quantity, q, eps
                rows[(*key, seen[key])] = status, value, abs_error
                seen[key] += 1
    return rows


def row_changes(a: dict, b: dict) -> tuple:
    """([(key, old verdict, new verdict)], (largest |value change| / abs_error,
    its key)) between two records' files; the ratio is over the rows of both
    with the same verdict and a value, abs_error the larger of the two rows'
    (inf for a move against a zero error, None if no row has a value)."""
    old, new = csv_rows(a), csv_rows(b)
    changed, worst = [], (None, None)
    for key in old.keys() & new.keys():
        (s0, v0, e0), (s1, v1, e1) = old[key], new[key]
        if s0 != s1:
            changed.append((key, s0, s1))
        elif v0 and v1:
            move, err = abs(float(v1) - float(v0)), max(float(e0 or 0), float(e1 or 0))
            ratio = move / err if err else (math.inf if move else 0.0)
            if worst[0] is None or ratio > worst[0]:
                worst = ratio, key
    return sorted(changed), worst


def row_report(old: list, new: list) -> list:
    """One line per op whose CSV rows differ: its verdict changes and its
    largest value move over abs_error; then a totals line."""
    lines, n_changed, top = [], 0, 0.0
    for i, (a, b) in enumerate(zip(old, new)):
        changed, (ratio, key) = row_changes(a["files"], b["files"])
        if not changed and not ratio:
            continue
        n_changed += len(changed)
        top = max(top, ratio or 0.0)
        line = f"op {i} {' '.join(a['argv'])}:"
        line += "".join(f" {_key(k)} {s0} -> {s1};" for k, s0, s1 in changed)
        if ratio is not None:
            line += f" largest |dvalue|/abs_error {ratio:.3g} ({_key(key)})"
        lines.append(line)
    lines.append(f"rows: {n_changed} verdict change(s); largest |dvalue|/abs_error {top:.3g}")
    return lines


def _key(key) -> str:
    name, quantity, q, eps, n = key
    return f"{name}:{quantity}[q={q or '-'},eps={eps or '-'}]" + (f"#{n}" if n else "")


def n_evals_only(old: list, new: list) -> str:
    """The line that counts the ops whose only difference is the n_evals of
    their verdicts, and sums those n_evals old -> new."""
    n_ops = old_sum = new_sum = 0
    for a, b in zip(old, new):
        if any(a[key] != b[key] for key in ("exit", "stdout", "stderr", "files")) or \
                len(a["verdicts"]) != len(b["verdicts"]):
            continue
        changes = verdict_changes(a["verdicts"], b["verdicts"])
        if changes and all(names == ["n_evals"] for _, names in changes):
            n_ops += 1
            old_sum += sum(v[3] for v in a["verdicts"])
            new_sum += sum(v[3] for v in b["verdicts"])
    return f"{n_ops} op(s) differ only in n_evals, which sum to {old_sum} -> {new_sum} there"


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
    args = parser.parse_args(argv)
    ops = default_ops()
    old = record(load(args.old, "wienerlab_old"), ops)
    new = record(load(args.new, "wienerlab_new"), ops)
    lines = differences(old, new)
    for line in lines + row_report(old, new):
        print(line)
    n_verdicts = sum(len(r["verdicts"]) for r in new)
    n_files = sum(len(r["files"]) for r in new)
    verdict = f"{len(lines)} op(s) differ" if lines else "all equal"
    print(f"{len(ops)} ops, {n_files} files, {n_verdicts} verdicts "
          f"({certificate_changes(old, new)} with a different status, value or abs_error): "
          f"{verdict}")
    print(n_evals_only(old, new))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
