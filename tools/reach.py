"""List the functions of src/wienerlab that the user paths never call.

    python tools/reach.py

It records with sys.setprofile every function of src/wienerlab called while
it runs, in this one interpreter:

- the operations of tools/compare_outputs.py (default_ops(): the benchmark
  workloads' op lists and the edge ops), each through wienerlab.cli.main
  with its output in a temporary directory;
- tests/test_acceptance.py, through pytest;
- the demos in demos/.

Then it prints each module-level function and class method of
src/wienerlab that none of these reached, as module.qualname, one a line,
tagged "[perfbench]" where perfbench/ names it (pinned): the tracer wraps
it (tracer.FUNCTIONS, tracer.METHODS) or perfbench/run.py imports it.  A
tagged function can go only with a change to the benchmark.  Nested
functions (closures) are not listed.  Functions that run only while
wienerlab is imported count as reached only if the import happens after the
profile is set, as it does when this script runs on its own.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

from compare_outputs import ROOT, default_ops, run_op

SRC = ROOT / "src" / "wienerlab"
TAG = "[perfbench]"


def defined() -> set:
    """module.qualname of every module-level function and class method under SRC."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(f"{mod}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return names


def pinned() -> set:
    """module.qualname of what perfbench/ names, read from its files: the
    functions and methods its tracer wraps, and the names perfbench/run.py
    imports from a wienerlab module."""
    import tracer  # perfbench/tracer.py, on the path compare_outputs sets
    names = {f"{mod}.{attr}" for mod, attr, _ in tracer.FUNCTIONS}
    names |= {f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracer.METHODS}
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    names |= {f"{node.module.split('.', 1)[1]}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wienerlab.")
              for alias in node.names}
    return names


def listing(unreached, pins) -> list:
    """One line per unreached name, tagged where pins holds it."""
    return [f"{name}  {TAG}" if name in pins else name for name in unreached]


def reached(run) -> set:
    """module.qualname of every function under SRC that is called while run() runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    src = str(SRC.resolve())
    # CO_OPTIMIZED: the code of a function, not of a module or class body run on import
    return {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in codes
            if code.co_flags & inspect.CO_OPTIMIZED
            and os.path.dirname(os.path.realpath(code.co_filename)) == src}


def run_ops(ops) -> None:
    """Each op through wienerlab.cli.main, its output in a temporary directory."""
    import wienerlab.cli as cli
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(ops):
            run_op(cli, argv, Path(tmp) / f"op{i}")


def run_acceptance() -> int:
    """tests/test_acceptance.py through pytest; its exit code."""
    import pytest
    with contextlib.redirect_stdout(io.StringIO()):
        return int(pytest.main(["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests" / "test_acceptance.py")]))


def run_demos() -> None:
    """Each demo as __main__, in a temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        try:
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    ops = default_ops()
    status = {}

    def run_all():
        run_ops(ops)
        status["acceptance"] = run_acceptance()
        run_demos()

    seen = reached(run_all)
    if status["acceptance"]:
        print(f"# tests/test_acceptance.py exited {status['acceptance']}; a failed test "
              "stops where it fails", file=sys.stderr)
    unreached = sorted(defined() - seen)
    pins = pinned()
    for line in listing(unreached, pins):
        print(line)
    print(f"# {len(ops)} ops, the acceptance tests and the demos: "
          f"{len(unreached)} of {len(defined())} functions not reached, "
          f"{len(pins.intersection(unreached))} of them {TAG}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
