"""Where the benchmark lives, and what ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Journals, stores, worker logs and span files: inside the checkout.
WORK = ROOT / ".bench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def import_system() -> None:
    """Put this checkout's ``src`` first; refuse any other ``repro``."""
    sys.path.insert(0, str(SRC))
    # Socket-plane workers are ``python -m repro.netd.worker`` children.
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *inherited])
    try:
        import repro
    except ImportError:
        raise SystemExit(f"no repro package under {SRC}") from None
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {SRC}")
