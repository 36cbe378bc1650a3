"""Command-line interface: ``python -m repro`` / ``pisa-repro``.

Gives downstream users one entry point into the reproduction:

=============  =================================================
``demo``       one end-to-end PISA round on a small scenario
``testbed``    the §VI-B four-scenario SDR experiment
``zones``      TVWS vs WATCH exclusion-zone maps
``tradeoff``   the §VI-A location-privacy/latency sweep
``simulate``   a deployment-capacity simulation (paper-hardware
               cost model, configurable load and packing)
``profile``    Table II Paillier micro-benchmarks at any key size
``serve-loadtest``  drive the async service broker with synthetic
               open-loop load and report throughput/latency
               (``--plane socket`` runs shards + STP as subprocesses;
               ``--trace`` adds the span tree and per-phase latency,
               ``--metrics-dump`` the Prometheus exposition)
``store``      inspect a durable SQLite state store (row counts,
               snapshot epochs, checkpoint metadata)
``audit``      crypto-hygiene static analyzer (CRY/SEC/ORD/SVC/TEL
               rules) with baseline-gated exit status
=============  =================================================
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisa-repro",
        description="PISA (ICDCS'17) reproduction — privacy-preserving "
        "fine-grained spectrum access",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one end-to-end PISA round")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--key-bits", type=int, default=256,
                      help="Paillier modulus size (2048 = paper setting)")
    demo.add_argument("--packed", action="store_true",
                      help="use the packed-request extension")
    demo.add_argument("--two-server", action="store_true",
                      help="use the STP-free two-server extension")

    testbed = sub.add_parser("testbed", help="the §VI-B four scenarios")
    testbed.add_argument("--seed", type=int, default=1)

    zones = sub.add_parser("zones", help="exclusion-zone maps")
    zones.add_argument("--seed", type=int, default=5)
    zones.add_argument("--probe-dbm", type=float, default=16.0)

    tradeoff = sub.add_parser("tradeoff", help="privacy vs latency sweep")
    tradeoff.add_argument("--seed", type=int, default=3)

    simulate = sub.add_parser("simulate", help="deployment capacity simulation")
    simulate.add_argument("--hours", type=float, default=24.0)
    simulate.add_argument("--rate", type=float, default=1.0,
                          help="SU requests per hour")
    simulate.add_argument("--packing", type=int, default=1,
                          help="packed-mode slots per ciphertext (1 = baseline)")
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--workload", type=str, default="steady",
                          help="named traffic shape (repro.sim.traffic)")

    profile = sub.add_parser("profile", help="Table II micro-benchmarks")
    profile.add_argument("--key-bits", type=int, default=1024)
    profile.add_argument("--iterations", type=int, default=10)

    negotiate = sub.add_parser(
        "negotiate", help="privately find an SU's max admissible power"
    )
    negotiate.add_argument("--seed", type=int, default=4)
    negotiate.add_argument("--block", type=int, default=None,
                           help="SU block index (default: scenario SU 0)")
    negotiate.add_argument("--resolution-db", type=float, default=1.0)

    capacity = sub.add_parser(
        "capacity", help="TVWS vs WATCH usable-spectrum accounting"
    )
    capacity.add_argument("--seed", type=int, default=5)
    capacity.add_argument("--probe-dbm", type=float, default=16.0)

    serve = sub.add_parser(
        "serve-loadtest",
        help="drive the async service broker with synthetic open-loop load",
    )
    serve.add_argument("--plane", choices=("memory", "socket"), default="memory",
                       help="deployment plane: in-process transport, or SDC "
                            "shards + STP as subprocesses over TCP frames")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--requests", type=int, default=12,
                       help="SU request arrivals to fire")
    serve.add_argument("--rate", type=float, default=50.0,
                       help="mean arrivals per second (open loop)")
    serve.add_argument("--sus", type=int, default=3,
                       help="distinct SUs cycling through arrivals")
    serve.add_argument("--key-bits", type=int, default=512,
                       help="Paillier modulus (packed mode needs >= 512)")
    serve.add_argument("--shards", type=int, default=0,
                       help="SDC shards behind the cluster facade "
                            "(0 = single packed SDC)")
    serve.add_argument("--scenario", type=str, default="uhf",
                       help="named scenario from the registry (uhf, "
                            "cbrs-tiered)")
    serve.add_argument("--workload", type=str, default="steady",
                       help="named traffic shape driving the open-loop "
                            "schedule (steady, diurnal, flash-crowd, "
                            "pu-churn-storm, mobility)")
    serve.add_argument("--tier-capacity", type=int, default=0,
                       help="GAA channel budget for cbrs-tiered "
                            "(0 = derive from WATCH capacity)")
    serve.add_argument("--pu-switches", type=int, default=2,
                       help="physical PU channel switches to interleave "
                            "with the arrivals")
    serve.add_argument("--window-ms", type=float, default=50.0,
                       help="epoch batching window")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="requests per epoch before early dispatch")
    serve.add_argument("--workers", type=int, default=0,
                       help="threads for the shards' and the STP's Paillier "
                            "batches (0 = serial in-process executor)")
    serve.add_argument("--store", type=str, default=None, metavar="DIR",
                       help="the deployment's durable SQLite state store, "
                            "DIR/state.sqlite on either plane (needs "
                            "--shards in memory)")
    serve.add_argument("--trace", action="store_true",
                       help="print the span tree and the per-phase latency "
                            "table after the report (and add the spans to "
                            "--json)")
    serve.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="also write the full report as JSON")
    serve.add_argument("--metrics-dump", type=str, default=None,
                       metavar="PATH",
                       help="write the run's unified metrics registry as "
                            "Prometheus text to PATH")
    serve.add_argument("--host", type=str, default=None,
                       help="socket plane: address the authority and the "
                            "workers bind (default 127.0.0.1)")
    serve.add_argument("--tls-cert", type=str, default=None, metavar="PATH",
                       help="socket plane: deployment certificate; wraps "
                            "every connection in TLS (needs --tls-key)")
    serve.add_argument("--tls-key", type=str, default=None, metavar="PATH",
                       help="socket plane: the certificate's private key")
    serve.add_argument("--tls-ca", type=str, default=None, metavar="PATH",
                       help="socket plane: CA bundle; when given, both "
                            "sides require a certificate it signed")

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault plans and check transcript/license survival "
             "and that every plan fired",
        description="Run seeded fault plans against a control deployment. "
                    "Exit status: 0 when every schedule is OK, 1 when one "
                    "FAILs, 2 when a schedule is refused before anything "
                    "is built.",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--plan", type=str, default="kill-shard",
                       help="comma-separated fault plans composed into one "
                            "schedule, or 'all' to run every plan singly; "
                            "a schedule whose plans' declared strike points "
                            "clash (a crash before another plan strikes, a "
                            "kill on a zombie, ...) is refused before "
                            "anything is built (exit 2)")
    chaos.add_argument("--plane", choices=("memory", "socket"), default="memory",
                       help="where the faulted run stands: in-process, or "
                            "SDC shards + STP as subprocesses over TCP, "
                            "where kill-shard is a real SIGKILL (the "
                            "control run is in memory either way)")
    chaos.add_argument("--shards", type=int, default=2)
    chaos.add_argument("--rounds", type=int, default=2,
                       help="protocol rounds per run")
    chaos.add_argument("--key-bits", type=int, default=256,
                       help="Paillier modulus for the paired deployments")
    chaos.add_argument("--workload", type=str, default="",
                       help="compose the fault schedule with a named "
                            "traffic shape (flash-crowd, pu-churn-storm, "
                            "...)")
    chaos.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="also write the results as JSON")
    chaos.add_argument("--metrics-dump", type=str, default=None,
                       metavar="PATH",
                       help="write the runs' unified metrics registry as "
                            "Prometheus text to PATH (CI greps the fencing "
                            "families from it)")

    store_cmd = sub.add_parser(
        "store",
        help="inspect a durable SQLite state store (rows, snapshots, "
             "checkpoint meta)",
    )
    store_cmd.add_argument("path", help="SQLite state-store file")
    store_cmd.add_argument("--json", type=str, default=None, metavar="PATH",
                           help="also write the inspection as JSON")

    audit = sub.add_parser(
        "audit",
        help="run the crypto-hygiene static analyzer over the source tree",
    )
    audit.add_argument("paths", nargs="*", default=["src/repro"],
                       help="files/directories to analyze (default: src/repro)")
    audit.add_argument("--baseline", type=str, default="audit-baseline.json",
                       metavar="PATH",
                       help="grandfathered-findings file (default: "
                            "audit-baseline.json; missing file = empty)")
    audit.add_argument("--update-baseline", action="store_true",
                       help="rewrite the baseline to the current finding set")
    audit.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="also write the full report as JSON")
    audit.add_argument("--sarif", type=str, default=None, metavar="PATH",
                       help="also write the report as SARIF 2.1.0 "
                            "(GitHub code scanning)")
    audit.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text", help="stdout report format")
    audit.add_argument("--select", action="append", default=None,
                       metavar="RULE",
                       help="run only this rule id (repeatable)")
    audit.add_argument("--explain", type=str, default=None, metavar="RULEID",
                       help="print the rule's rationale, bad/good example, "
                            "and waiver syntax, then exit")
    audit.add_argument("--verbose", action="store_true",
                       help="also list grandfathered findings")

    return parser


def _cmd_demo(args) -> int:
    from repro.crypto.rand import DeterministicRandomSource
    from repro.watch.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(seed=args.seed))
    rng = DeterministicRandomSource(args.seed)
    if args.packed and args.two_server:
        print("choose at most one of --packed / --two-server", file=sys.stderr)
        return 2
    if args.packed:
        from repro.pisa.packed import PackedCoordinator as Coordinator

        key_bits = max(args.key_bits, 512)  # packing needs slot room
    elif args.two_server:
        from repro.pisa.two_server import TwoServerCoordinator as Coordinator

        key_bits = args.key_bits
    else:
        from repro.pisa.protocol import PisaCoordinator as Coordinator

        key_bits = args.key_bits
    coordinator = Coordinator(scenario.environment, key_bits=key_bits, rng=rng)
    for pu in scenario.pus:
        coordinator.enroll_pu(pu)
    su = scenario.sus[0]
    coordinator.enroll_su(su)
    report = coordinator.run_request_round(su.su_id)
    variant = "packed" if args.packed else ("two-server" if args.two_server else "stp")
    print(f"variant={variant} key_bits={key_bits}")
    print(f"decision for {su.su_id}: {'GRANTED' if report.granted else 'DENIED'}")
    print(f"request {report.request_bytes} B, response {report.response_bytes} B, "
          f"round {report.timings.total:.2f} s")
    return 0


def _cmd_testbed(args) -> int:
    from repro.sdr.testbed import SdrTestbed

    for result in SdrTestbed(seed=args.seed).run_all():
        print(f"[{result.name}]")
        for event in result.events:
            print(f"  {event}")
    return 0


def _cmd_zones(args) -> int:
    from repro.watch.scenario import ScenarioConfig, build_scenario
    from repro.watch.zones import compute_zones, render_zone_map

    scenario = build_scenario(ScenarioConfig(
        seed=args.seed, grid_rows=8, grid_cols=12, num_channels=4,
        num_towers=2, num_pus=4, num_sus=0,
    ))
    slot = scenario.pus[0].channel_slot
    active = [p for p in scenario.pus if p.channel_slot == slot]
    zones = compute_zones(
        scenario.environment, active, slot, probe_power_dbm=args.probe_dbm
    )
    print(render_zone_map(scenario.environment, zones, active))
    print(f"static {zones.static_fraction:.0%} | dynamic "
          f"{zones.dynamic_fraction:.0%} | reuse gain {zones.reuse_gain:+.0%}")
    return 0


def _cmd_tradeoff(args) -> int:
    import runpy
    import pathlib

    script = pathlib.Path(__file__).resolve().parents[2] / "examples" / "privacy_tradeoff.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/privacy_tradeoff.py not found", file=sys.stderr)
    return 1


def _cmd_simulate(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.sim import DeploymentSimulator, ServiceCostModel, paper_profile
    from repro.watch.scenario import ScenarioConfig, build_scenario

    model = ServiceCostModel(
        paper_profile(), num_channels=100, num_blocks=600,
        packing_factor=args.packing,
    )
    scenario = build_scenario(ScenarioConfig(seed=4, num_sus=3))
    simulator = DeploymentSimulator(
        scenario, model, args.rate, seed=args.seed,
        traffic=args.workload,
    )
    report = simulator.run(args.hours * 3600)
    print(format_table(
        f"{args.hours:.0f} h @ {args.rate:g} req/h, "
        f"packing k={args.packing}, workload {args.workload}",
        report.as_table_rows(),
    ))
    print("phase costs: paper Table II constants")
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.analysis.scaling import measure_cost_profile
    from repro.crypto import backend

    profile = measure_cost_profile(
        key_bits=args.key_bits, iterations=args.iterations
    )
    print(format_table(
        f"Paillier @ n = {args.key_bits} bits · {backend.describe()} · "
        f"{args.iterations} iterations",
        profile.as_table_rows(),
    ))
    return 0


def _cmd_negotiate(args) -> int:
    from repro.crypto.rand import DeterministicRandomSource
    from repro.pisa.negotiation import PowerNegotiator
    from repro.pisa.protocol import PisaCoordinator
    from repro.watch.entities import SUTransmitter
    from repro.watch.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(seed=args.seed))
    coordinator = PisaCoordinator(
        scenario.environment, key_bits=256,
        rng=DeterministicRandomSource(args.seed),
    )
    for pu in scenario.pus:
        coordinator.enroll_pu(pu)
    block = scenario.sus[0].block_index if args.block is None else args.block
    su = SUTransmitter("cli-su", block_index=block)
    result = PowerNegotiator(
        coordinator, resolution_db=args.resolution_db
    ).negotiate(su)
    if result.admitted:
        print(f"max admissible power at block {block}: "
              f"{result.best_power_dbm:.1f} dBm "
              f"({result.rounds_used} encrypted rounds)")
    else:
        print(f"block {block} is inadmissible even at the floor power")
    return 0


def _cmd_capacity(args) -> int:
    from repro.analysis.reporting import format_table
    from repro.watch.capacity import capacity_report
    from repro.watch.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(
        seed=args.seed, grid_rows=6, grid_cols=8, num_channels=4,
        num_towers=2, num_pus=4, num_sus=0,
    ))
    report = capacity_report(
        scenario.environment, scenario.pus, probe_power_dbm=args.probe_dbm
    )
    print(format_table(
        f"spectrum capacity at {args.probe_dbm:g} dBm", report.as_table_rows()
    ))
    return 0


def _cmd_serve_loadtest(args) -> int:
    import json
    import os

    from repro.analysis.reporting import format_table
    from repro.crypto import backend
    from repro.crypto.parallel import ThreadExecutor
    from repro.service import LoadtestConfig, ServiceConfig, run_loadtest
    from repro.telemetry import MetricsRegistry, Tracer

    if args.plane == "socket" and args.workers:
        print("--plane socket does not take --workers (homomorphic work "
              "there runs in the worker processes)", file=sys.stderr)
        return 2
    if args.store and not args.shards and args.plane != "socket":
        print("--store requires a sharded run (--shards N)", file=sys.stderr)
        return 2
    tls_given = bool(args.tls_cert or args.tls_key or args.tls_ca)
    if args.plane != "socket" and (args.host or tls_given):
        print("--host / --tls-cert / --tls-key / --tls-ca need --plane socket",
              file=sys.stderr)
        return 2
    if tls_given and not (args.tls_cert and args.tls_key):
        print("TLS needs both --tls-cert and --tls-key (--tls-ca is optional)",
              file=sys.stderr)
        return 2
    shards = max(args.shards, 1) if args.plane == "socket" else args.shards
    config = LoadtestConfig(
        seed=args.seed,
        num_requests=args.requests,
        arrivals_per_second=args.rate,
        num_sus=args.sus,
        num_pu_switches=args.pu_switches,
        key_bits=args.key_bits,
        service=ServiceConfig(
            batch_window_s=args.window_ms / 1000.0,
            max_batch=args.max_batch,
        ),
        shards=shards,
        store_path=os.path.join(args.store, "state.sqlite") if args.store else "",
        scenario=args.scenario,
        workload=args.workload,
        tier_capacity=args.tier_capacity,
    )
    if args.store:
        os.makedirs(args.store, exist_ok=True)
    metrics = MetricsRegistry()
    tracer = Tracer() if args.trace else None
    if args.plane == "socket":
        from repro.netd.plane import build_socket_service, health_check
        from repro.netd.transport import TlsSpec

        tls = TlsSpec(args.tls_cert, args.tls_key, args.tls_ca) if tls_given else None
        with build_socket_service(
            config,
            metrics=metrics,
            tracer=tracer,
            tls=tls,
            host=args.host or "127.0.0.1",
        ) as fixture:
            report = fixture.run()
            stp_threads = health_check(fixture)["stp"].get("executor_threads")
        executor_name = f"shard-processes, stp threads[{stp_threads}]"
        plane = f"{shards}-shard socket plane"
    elif args.workers > 0:
        with ThreadExecutor(args.workers) as executor:
            report = run_loadtest(
                config, executor=executor, metrics=metrics, tracer=tracer
            )
        executor_name = f"threads[{args.workers}]"
        plane = f"{args.shards}-shard cluster" if args.shards else "single SDC"
    else:
        report = run_loadtest(config, metrics=metrics, tracer=tracer)
        executor_name = "serial"
        plane = f"{args.shards}-shard cluster" if args.shards else "single SDC"
    print(format_table(
        f"serve-loadtest: {args.requests} req @ {args.rate:g}/s, "
        f"window {args.window_ms:g} ms, executor {executor_name}, "
        f"crypto {backend.describe()}, "
        f"{plane}, {args.scenario}/{args.workload}",
        report.as_table_rows(),
    ))
    if tracer is not None:
        print()
        print(tracer.render(), end="")
        print()
        print(f"{'phase':<12} {'count':>5} {'mean ms':>9} {'max ms':>9}")
        for name, stats in sorted(tracer.phase_latency().items()):
            print(f"{name:<12} {stats['count']:>5} "
                  f"{stats['mean_s'] * 1e3:>9.2f} {stats['max_s'] * 1e3:>9.2f}")
    if args.json:
        payload = report.to_json_dict()
        if tracer is not None:
            payload["spans"] = [span.to_dict() for span in tracer.roots]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.metrics_dump is not None:
        _write_prometheus(args.metrics_dump, metrics)
    return 0


def _write_prometheus(path: str, metrics) -> None:
    """``--metrics-dump PATH``: the registry as Prometheus text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics.to_prometheus())
    print(f"wrote {path}")


def _cmd_chaos(args) -> int:
    import json

    from repro.errors import ChaosPlanError
    from repro.resilience.chaos import PLAN_NAMES, ChaosHarness, resolve_plans

    metrics = None
    if args.metrics_dump is not None:
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    if args.plan == "all":
        schedules = [[name] for name in PLAN_NAMES]
    else:
        schedules = [[p.strip() for p in args.plan.split(",") if p.strip()]]
    try:
        harness = ChaosHarness(
            seed=args.seed,
            shards=args.shards,
            rounds=args.rounds,
            key_bits=args.key_bits,
            metrics=metrics,
            workload=args.workload,
            plane=args.plane,
        )
        for schedule in schedules:
            resolve_plans(schedule, args.rounds)
    except ChaosPlanError as exc:
        # A refused schedule is a usage error (exit 2), not a FAIL (exit 1).
        print(f"pisa-repro chaos: error: {exc}", file=sys.stderr)
        return 2
    results = []
    failed = 0
    for schedule in schedules:
        result = harness.run(schedule)
        results.append(result)
        verdict = "OK" if result.ok else "FAIL"
        shape = f" workload={args.workload}" if args.workload else ""
        if args.plane != "memory":
            shape += f" plane={args.plane}"
        print(
            f"chaos [{'+'.join(result.plans)}]{shape} seed={result.seed} "
            f"shards={result.shards}: {verdict} "
            f"(transcript_equal={result.transcript_equal}, "
            f"licenses_valid={result.licenses_valid}, "
            f"failovers={result.failovers}, suspects={result.suspects}, "
            f"fenced={result.fenced_rejections}, "
            f"writer_violations={result.writer_violations}, "
            f"faults={result.fault_stats})"
        )
        for note in result.notes:
            print(f"  - {note}")
        for name in result.unfired:
            print(f"  - {name} never fired")
        if not result.ok:
            failed += 1
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2,
                      sort_keys=True)
        print(f"wrote {args.json}")
    if metrics is not None:
        _write_prometheus(args.metrics_dump, metrics)
    return 1 if failed else 0


def _cmd_store(args) -> int:
    import json
    import os

    from repro.analysis.reporting import format_table
    from repro.store import CHECKPOINT_SCOPE, CheckpointMeta, SqliteStateStore

    # Opening would *create* an empty database; an inspector must not.
    if not os.path.exists(args.path):
        print(f"pisa-repro store: error: no such store: '{args.path}'")
        return 1
    with SqliteStateStore(args.path) as store:
        counts = store.row_counts()
        snapshots = {}
        for shard_id in store.snapshot_shards():
            latest = store.latest_snapshot(shard_id)
            if latest is not None:
                snapshots[shard_id] = latest[0]
        meta_blob = store.get_checkpoint(CHECKPOINT_SCOPE)
        meta = CheckpointMeta.from_bytes(meta_blob) if meta_blob else None
        has_directory = store.get_directory() is not None
    rows = [(f"{table} rows", str(counts.get(table, 0)))
            for table in sorted(counts)]
    rows.append(("key directory", "present" if has_directory else "absent"))
    for shard_id, epoch in sorted(snapshots.items()):
        rows.append((f"snapshot[{shard_id}]", f"epoch {epoch}"))
    if meta is not None:
        rows.append(("last checkpoint",
                     f"id {meta.checkpoint_id}, "
                     f"{meta.records_consumed} records consumed"))
    else:
        rows.append(("last checkpoint", "none"))
    print(format_table(f"state store {args.path}", rows))
    if args.json is not None:
        payload = {
            "path": args.path,
            "row_counts": counts,
            "directory_present": has_directory,
            "snapshot_epochs": snapshots,
            "checkpoint": None if meta is None else {
                "checkpoint_id": meta.checkpoint_id,
                "records_consumed": meta.records_consumed,
            },
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_audit(args) -> int:
    from repro.audit.cli import explain_rule, run_audit

    if args.explain is not None:
        return explain_rule(args.explain)
    return run_audit(
        list(args.paths),
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
        json_path=args.json,
        sarif_path=args.sarif,
        output_format=args.format,
        select=args.select,
        verbose=args.verbose,
    )


_COMMANDS = {
    "demo": _cmd_demo,
    "audit": _cmd_audit,
    "chaos": _cmd_chaos,
    "serve-loadtest": _cmd_serve_loadtest,
    "store": _cmd_store,
    "negotiate": _cmd_negotiate,
    "capacity": _cmd_capacity,
    "testbed": _cmd_testbed,
    "zones": _cmd_zones,
    "tradeoff": _cmd_tradeoff,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"pisa-repro {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
