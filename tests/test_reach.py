"""Smoke test of tools/reach.py: which functions two operations reach."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_two_ops_reach_their_paths_and_nothing_else():
    ops = [["diagnose", "--functional", "linear", "--h=1", "--delta", "0.1"],
           ["cm-check", "--n-samples", "1000"]]
    seen = reach.reached(lambda: reach.run_ops(ops))
    assert sys.getprofile() is None
    defined = reach.defined()
    assert {"cli.main", "cli.cmd_report", "cli.cmd_cm_check", "quadrature._outcomes",
            "quadrature._evaluate", "quadrature._exhaust", "quadrature._segment",
            "quadrature.Family.cuts",
            "wiener.wiener_integral_blocks"} <= seen
    # a flag and a config file that neither op uses, and a single-verdict function
    assert {"cli._parse_eps_grid", "cli._config_flags",
            "quadrature.integrate_semi_infinite"} <= defined - seen
    # every function reached, closures and comprehensions aside, is one that defined() lists
    assert {name for name in seen if "<" not in name} <= defined
