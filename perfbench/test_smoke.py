"""The benchmark's own test: smoke mode runs every workload in both
modes on a 500-document corpus, checks every run against the DuckDB
twins and checks that every metric of BENCHMARK.json is emitted.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = [json.loads(x) for x in p.stdout.splitlines() if x.startswith("{")]
    assert lines[-1] == {"smoke": "ok"}
    runs = lines[:-1]
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w["name"], t) for w in spec["workloads"] for t in (False, True)
    }
    for r in runs:
        kind = "per_layer" if r["trace"] else "end_to_end"
        assert set(r["metrics"]) == {m["name"] for m in spec[kind]}
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1


def test_refuses_code_path_switches():
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kg_small"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={"SHACLEX_SPLIT_ROWS": "1000", "PATH": "/usr/bin:/bin"},
    )
    assert p.returncode == 2 and not p.stdout
