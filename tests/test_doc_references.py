"""No dangling references: what the docs and the package cite must exist.

Every ``benchmarks/`` / ``examples/`` / ``docs/`` / ``tests/`` /
``src/repro/`` path ending ``.py`` / ``.md`` / ``.json`` that README,
DESIGN, EXPERIMENTS, ``docs/*.md`` or any file under ``src/repro``
cites must be a file in the checkout.  The six pre-spine benches PR 17
retired — and the ``BENCH_*.json`` histories they wrote — may not be
cited at all, with or without a path; nor may the ``cluster-up``
launcher PR 20 retired, its spec file or its ``ClusterSpec``.
Neither may the transport options, classes and fault plan that went
when the in-memory transport became one class keeping only per-kind
totals and link faults, nor the round drivers, span probe and endpoint
names that went when ``BatchAllocator.allocate`` became the one driver
of a request round, nor the second arrival path, clock and link model
that went when the deployment simulator moved onto the named workloads
of ``repro.sim.traffic``, nor the ``trace`` / ``metrics-dump`` commands,
the socket runner and the loadtest's shard-kill trigger that went when
``serve-loadtest --trace / --metrics-dump`` became the one loadtest
front door on both planes (the ``--metrics-dump`` flag stays).

History files (``CHANGES.md``, ``ROADMAP.md``) and
``benchmarks/spine/README.md`` are deliberately out of scope.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

CITED_PATH = re.compile(
    r"(?<![\w/.-])(?:benchmarks|examples|docs|tests|src/repro)/[\w./-]*\.(?:py|md|json)\b"
)
RETIRED = re.compile(
    r"BENCH_[a-z]+\.json"
    r"|bench_(?:service_throughput|cluster_scaling|socket_plane"
    r"|resilience_overhead|store_coldstart|workload_capacity)"
    r"|cluster-up|cluster_spec\.json|ClusterSpec"
    r"|handle_partial_extraction|start_request_with_partials"
    r"|_indicator_cell"
    r"|MultiplexedTransport|BoundChannel|resolve_multiplexed|max_records"
    r"|total_delay_seconds|configure_link|DistanceLatency|SeededJitterLatency"
    r"|reorder-links|reorder_window"
    r"|_run_round|_accepts_span|CONVERSION_PEER|sdc_endpoint|stp_endpoint"
    r"|sdc-front|sdc-back"
    r"|WorkloadConfig|PoissonArrivals|PuSwitchProcess|SimClock|ConstantLatency"
    r"|ShardPhase2Request|ShardPhase2Response|scatter_phase2|process_phase2"
    r"|encode_phase2_request|decode_phase2_response"
    r"|proc-kill-shard|proc-split-brain|proc-gray-slow|SOCKET_PLAN_NAMES"
    r"|wants_processes|set_subquery_hook|fire_subquery_hook"
    r"|run_socket_loadtest|kill_shard_after|--kill-shard|_cmd_trace|_cmd_metrics_dump"
    r"|repro (?:trace|metrics-dump)\b"
)


def scanned_files() -> list[pathlib.Path]:
    files = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    files += sorted((ROOT / "docs").glob("*.md"))
    files += sorted((ROOT / "src" / "repro").rglob("*.py"))
    return files


def citations(pattern: re.Pattern) -> list[tuple[str, str]]:
    """Every match of ``pattern`` in the scanned files, as ``(file:line, text)``."""
    out = []
    for path in scanned_files():
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            where = f"{path.relative_to(ROOT)}:{lineno}"
            out.extend((where, match.group(0)) for match in pattern.finditer(line))
    return out


def test_every_cited_path_exists():
    cited = citations(CITED_PATH)
    assert cited, "the scan found no citations at all"
    assert [c for c in cited if not (ROOT / c[1]).is_file()] == []


def test_retired_benches_are_not_cited():
    assert citations(RETIRED) == []
