"""Gate on tools/verdict_sweep.py: no count of wrong or missing certificates
may rise above the newest VERDICTS_*.json at the root of the repo."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("verdict_sweep", ROOT / "tools" / "verdict_sweep.py")
verdict_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_sweep)


def newest_record() -> dict:
    path = max(ROOT.glob("VERDICTS_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    return json.loads(path.read_text(encoding="utf-8"))


def test_no_count_rises_above_the_newest_record():
    counts = verdict_sweep.sweep()
    recorded = newest_record()["families"]
    risen = [f"{family}.{key}: {c[key]} > {recorded.get(family, {}).get(key, 0)}"
             for family, c in counts.items() for key in verdict_sweep.WRONG
             if c[key] > recorded.get(family, {}).get(key, 0)]
    assert not risen
