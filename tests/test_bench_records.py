"""The committed ``BENCH_*.json`` records against ``BENCHMARK.json``.

Each record holds the runs of ``bench/run.py`` on one commit: ``trace_0``
with the end-to-end metrics and ``trace_1`` with the per-layer ones.  A
record is only comparable if it names its environment, its run was
correct, and every metric it reports is one that ``BENCHMARK.json``
declares for that trace.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SECTION = {"trace_0": "end_to_end", "trace_1": "per_layer"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_declared_metrics(path):
    record = json.loads(path.read_text())
    assert record["commit"] and record["command"].startswith("python3 bench/")
    assert set(record["runs"]) <= set(SECTION) and record["runs"]
    for trace, run in record["runs"].items():
        assert run["environment"].startswith("python ")
        result = run["result"]
        assert result["correct"] is True
        declared = {m["name"] for m in DECLARED[SECTION[trace]]}
        assert result["metrics"] and set(result["metrics"]) <= declared
