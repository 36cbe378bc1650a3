"""One workload in this process: set up, warm up, measure, check, tear down."""

from __future__ import annotations

import asyncio
import os
import pathlib
import resource
import shutil
import statistics
import tempfile
import time

from drive import ClosedLoop, family_total, host_factor, reference_slices
from probes import Probes
from spec import END_TO_END, PER_LAYER, WORK
from waterfall import per_layer_metrics
from workloads import GATE_SHARE, WORKLOADS, choose_scenario, deploy

now = time.perf_counter


async def _measure(workload, seed: int, seconds: float, probes, workdir) -> dict:
    """An untraced run sets up ``workload.setups`` times and times one
    window; a traced run (``probes``) sets up once and splits the time
    into an untraced and a traced window on the same deployment."""
    scenario_seed, scenario_config = choose_scenario(workload, seed)
    setup_s = []
    deployment = None
    try:
        for i in range(workload.setups if probes is None else 1):
            if deployment is not None:
                await deployment.broker.stop()
                deployment.close()
            slices = reference_slices()
            start = now()
            deployment = deploy(
                workload, scenario_seed, scenario_config, workdir / f"setup-{i}", probes
            )
            loop = ClosedLoop(workload, deployment, scenario_seed, probes)
            await deployment.broker.start()
            _, warmup = await loop.round()
            elapsed = now() - start
            setup_s.append(elapsed * host_factor(slices + reference_slices()))
        if probes is None:
            windows = [await loop.window(seconds)]
        else:
            windows = [await loop.window(seconds / 2)]
            probes.enabled = True
            windows.append(await loop.window(seconds / 2))
            probes.enabled = False
        await deployment.broker.stop()
        store_bytes = 0
        if deployment.store_dir is not None:
            store_bytes = sum(f.stat().st_size for f in deployment.store_dir.iterdir())
    finally:
        if deployment is not None:
            deployment.close()
    return {
        "scenario_seed": scenario_seed,
        "setup_s": setup_s,
        "warmup": warmup,
        "windows": windows,
        "deployment": deployment,
        "store_bytes": store_bytes,
    }


def _children_left() -> bool:
    """Is any child process of ours still running, or ended but unreaped?"""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _end_to_end_metrics(setup_s: list, window) -> dict:
    """Times are at the reference host speed (see ``drive.host_factor``)."""
    done = [s for s in window.samples if s.ok]
    rss_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return {
        "setup_s": statistics.median(setup_s),
        "request_latency_p50_s":
            statistics.median(s.latency_s * s.host_factor for s in done),
        "su_cycle_p50_s": statistics.median(s.cycle_s * s.host_factor for s in done),
        "throughput_rps": len(done) / window.reference_wall_s,
        "wire_bytes_per_request":
            family_total(window.counters, "transport_bytes_total") / len(done),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_out: str | None = None) -> dict:
    """Measure one workload and judge the run (README.md, *Correctness*)."""
    workload = WORKLOADS[name]
    probes = Probes() if trace else None
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        run = asyncio.run(_measure(workload, seed, seconds, probes, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    windows = run["windows"]
    timed = [s for w in windows for s in w.samples]
    failed = sum(1 for s in timed if not s.ok)
    grants = sum(1 for s in timed if s.granted)
    denies = sum(1 for s in timed if s.status == "denied")
    cold_failed = sum(1 for s in run["warmup"] if not s.ok)
    problems = []
    if failed or cold_failed:
        problems.append(
            f"{failed} of {len(timed)} timed and {cold_failed} warm-up requests failed"
        )
    if min(grants, denies) < GATE_SHARE * len(timed):
        problems.append(f"outcome mix is {grants} grants, {denies} denies")
    if _children_left():
        problems.append("a child process outlived the run")

    # A traced run's end-to-end numbers come from its untraced half: good
    # enough for --smoke, never what --trace 0 reports.
    end_to_end = _end_to_end_metrics(run["setup_s"], windows[0])
    per_layer = {}
    if trace:
        per_layer = per_layer_metrics(
            workload, run["deployment"], probes, run["warmup"], *windows,
            run["store_bytes"],
        )
        probes.write(trace_out or WORK / f"spans-{name}.json")
    for declared, measured in ((END_TO_END, end_to_end), (PER_LAYER, per_layer)):
        if measured and set(declared) != set(measured):
            problems.append(
                "metrics differ from BENCHMARK.json: "
                + ", ".join(sorted(set(declared) ^ set(measured)))
            )
    return {
        "workload": name,
        "seed": seed,
        "scenario_seed": run["scenario_seed"],
        "seconds": seconds,
        "trace": int(trace),
        "correct": not problems,
        "problems": problems,
        "attempted": len(timed),
        "failed": failed,
        "granted": grants,
        "denied": denies,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        # What the clock read on this host, before scaling.
        "as_measured": {
            "request_latency_p50_s":
                statistics.median(s.latency_s for s in windows[0].samples),
            "throughput_rps": len(windows[0].samples) / windows[0].wall_s,
            "host_slowdown_ratio":
                statistics.median(1 / s.host_factor for s in windows[0].samples),
        },
    }
