"""Smoke-run the spine and hold ``BENCHMARK.json`` to what it measures.

Not collected by the tier-1 run (``testpaths = ["tests"]``); run it with
``PYTHONPATH=src python -m pytest benchmarks/spine/test_spine.py`` (about
40 s; ``benchmarks/conftest.py`` imports ``repro``).
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_run_measures_exactly_what_is_declared(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stdout
    results = json.loads(out.read_text(encoding="utf-8"))
    assert [r["workload"] for r in results] == [w["name"] for w in SPEC["workloads"]]
    for result in results:
        assert result["correct"] and result["failed"] == 0, result["problems"]
        assert result["granted"] >= 1 and result["denied"] >= 1
        assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(value > 0 for value in result["end_to_end"].values())
        assert result["per_layer"]["watch.oracle_mismatches"] == 0
