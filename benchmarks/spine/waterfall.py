"""Per-layer metrics of a traced window, from its spans and counters.

Timings are means per completed request (window total / requests), so a
request's layers sum back to its latency:

    request_latency_mean = queue_wait + timed phases + broker_overhead
"""

from __future__ import annotations

import statistics

from repro.telemetry import percentile

from drive import family, family_total

#: Spans the allocator's pass is made of; everything else in a request's
#: latency is queue wait or broker overhead.
PHASES = (
    "cluster.phase1", "cluster.phase2", "cluster.commit_epoch",
    "pisa.packed_phase1", "pisa.packed_phase2", "pisa.stp", "pisa.license",
)


def _duration(span) -> float:
    return span["end"] - span["start"]


def _link_kind(end: str) -> str:
    """``su-3`` -> ``su``, ``shard-0`` -> ``shard``."""
    return end.rstrip("0123456789").rstrip("-")


def per_layer_metrics(workload, deployment, probes, warmup, plain, traced,
                      store_bytes: int) -> dict:
    samples = traced.samples
    n = len(samples)
    by_name: dict[str, list] = {}
    for span in probes.spans:
        if span["end"] is not None:
            by_name.setdefault(span["name"], []).append(span)

    def per_request(name: str) -> float:
        return sum(map(_duration, by_name.get(name, ()))) / n

    # Reconciliation.  Only one allocation pass runs at a time, so the
    # phase spans inside a request's ``service.allocate`` interval are its
    # epoch's (its own and, when batched, its epoch-mates').
    phase_spans = [s for name in PHASES for s in by_name.get(name, ())]
    submits = {s["request"]: s for s in by_name.get("broker.submit", ())}
    queue_wait = overhead = latency = 0.0
    for allocate in by_name.get("service.allocate", ()):
        submit = submits[allocate["request"]]
        wait = allocate["start"] - submit["start"]
        in_epoch = sum(
            _duration(s)
            for s in phase_spans
            if s["start"] >= allocate["start"] and s["end"] <= allocate["end"]
        )
        queue_wait += wait
        latency += _duration(submit)
        overhead += _duration(submit) - wait - in_epoch

    # Scatter: a phase 1 waits for its slowest shard.
    slowest: dict[str, float] = {}
    for span in by_name.get("cluster.shard_phase1", ()):
        request = span["request"]
        slowest[request] = max(slowest.get(request, 0.0), _duration(span))
    shard_max = sum(slowest.values()) / n
    phase1 = per_request("cluster.phase1")

    latencies = [s.latency_s for s in samples]
    granted = [s.latency_s for s in samples if s.granted]
    denied = [s.latency_s for s in samples if s.status == "denied"]
    pu_latency = [_duration(s) for s in by_name.get("pu.switch", ())]

    counters = traced.counters
    net_bytes = family(counters, "transport_bytes_total")

    def link_bytes(*kinds: str) -> float:
        """Bytes per request on links between these two kinds of endpoint."""
        return sum(
            value
            for labels, value in net_bytes
            if {_link_kind(end) for end in labels["link"].split("->")} == set(kinds)
        ) / n

    netd_frames = family(counters, "netd_frames_total")
    totals, stages = probes.totals, deployment.stages
    every_sample = warmup + plain.samples + traced.samples
    return {
        "crypto.modexp_per_request": totals["crypto.modexp"] / n,
        "crypto.modexp_exponent_bits_per_request":
            totals["crypto.modexp_exponent_bits"] / n,
        "crypto.pow_many_busy_s": totals["crypto.pow_many.busy_s"] / n,
        "crypto.client_refresh_s": per_request("crypto.client_refresh"),
        "crypto.client_prepare_s": stages["prepare"] / len(deployment.su_clients),
        "cluster.phase1_s": phase1,
        "cluster.phase2_s": per_request("cluster.phase2"),
        "cluster.commit_epoch_s": per_request("cluster.commit_epoch"),
        "cluster.shard_phase1_max_s": shard_max,
        "cluster.scatter_overhead_s": phase1 - shard_max if slowest else 0.0,
        "cluster.pu_update_apply_s": per_request("cluster.pu_update_apply"),
        "pisa.packed_phase1_s": per_request("pisa.packed_phase1"),
        "pisa.packed_phase2_s": per_request("pisa.packed_phase2"),
        "pisa.stp_s": per_request("pisa.stp"),
        "pisa.license_s": per_request("pisa.license"),
        "pisa.pu_build_update_s": per_request("pisa.pu_build_update"),
        "service.request_latency_mean_s": latency / n,
        "service.queue_wait_s": queue_wait / n,
        "service.broker_overhead_s": overhead / n,
        "service.batch_size_mean": n / totals["service.allocate.passes"],
        "service.request_latency_p75_s": percentile(latencies, 75),
        "service.request_latency_max_s": max(latencies),
        "service.grant_deny_latency_ratio": (
            statistics.median(granted) / statistics.median(denied)
            if granted and denied else 0.0
        ),
        "service.rejected_total": family_total(counters, "requests_rejected"),
        "service.pu_update_latency_p50_s":
            statistics.median(pu_latency) if pu_latency else 0.0,
        "netd.frames_per_request": sum(value for _, value in netd_frames) / n,
        "netd.authority_frames_per_request": sum(
            value for labels, value in netd_frames if labels["peer"] == "authority"
        ) / n,
        "netd.bytes_per_request": family_total(counters, "netd_bytes_total") / n,
        # Dials happen at deployment, before any window: the run's total.
        "netd.dials_total": family_total(
            deployment.metrics.snapshot()["counters"], "netd_dials_total"
        ),
        "netd.transact_s": totals["netd.transact.busy_s"] / n,
        "netd.transacts_per_request": totals["netd.transact.calls"] / n,
        "netd.deploy_s": stages["deploy"] if workload.plane == "socket" else 0.0,
        "net.messages_per_request":
            family_total(counters, "transport_records_total") / n,
        "net.bytes_per_request": sum(value for _, value in net_bytes) / n,
        "net.su_sdc_bytes_per_request": link_bytes("su", "sdc"),
        "net.sdc_stp_bytes_per_request": link_bytes("sdc", "stp"),
        "net.router_shard_bytes_per_request": link_bytes("router", "shard"),
        "net.pu_sdc_bytes_per_request": link_bytes("pu", "sdc"),
        "resilience.journal_records_per_request": totals["journal.append.calls"] / n,
        "resilience.journal_bytes_per_request": totals["journal.append.size"] / n,
        "resilience.journal_barriers_per_request":
            totals["journal.barrier.calls"] / n,
        "resilience.journal_append_s":
            (totals["journal.append.busy_s"] + totals["journal.barrier.busy_s"]) / n,
        "store.writes_per_request": totals["store.write.calls"] / n,
        "store.write_s": totals["store.write.busy_s"] / n,
        "store.bytes_on_disk": store_bytes,
        "watch.scenario_build_s": stages["scenario"],
        "watch.oracle_mismatches": sum(
            1 for s in every_sample
            if s.status in ("granted", "denied") and s.granted != s.expected_grant
        ),
        "bench.trace_overhead_ratio": (
            statistics.median(s.latency_s * s.host_factor for s in samples)
            / statistics.median(s.latency_s * s.host_factor for s in plain.samples)
        ),
        "bench.host_slowdown_ratio":
            statistics.median(1 / s.host_factor for s in samples),
        "bench.samples": n,
    }
