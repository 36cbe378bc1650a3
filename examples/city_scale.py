#!/usr/bin/env python3
"""A district-scale deployment: many PUs, several SUs, channel churn.

Reproduces the paper's *operating regime* at a size a laptop handles in
seconds: a 10x15-block district, 20 channel slots, 12 active TV
receivers, and 6 WiFi SUs requesting access.  Shows:

* decision distribution across SUs (and agreement with the plaintext
  WATCH oracle — the correctness claim);
* what happens when PUs switch channels or turn off (Figure 4 churn,
  including the virtual-channel optimisation);
* cumulative communication accounting per message type.

Run:  python examples/city_scale.py
"""

from collections import Counter

from repro.analysis.overhead import summarize_transport
from repro.analysis.reporting import format_table
from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.protocol import PisaCoordinator
from repro.watch.sdc import PlaintextSDC
from repro.watch.scenario import ScenarioConfig, build_scenario


def main() -> None:
    scenario = build_scenario(ScenarioConfig(
        grid_rows=10, grid_cols=15, num_channels=20,
        num_towers=5, num_pus=12, num_sus=6, seed=11,
    ))
    print(f"district: {scenario.grid.rows}x{scenario.grid.cols} blocks, "
          f"{scenario.params.num_channels} slots, "
          f"{len(scenario.pus)} PUs, {len(scenario.sus)} SUs")

    rng = DeterministicRandomSource("city")
    coordinator = PisaCoordinator(scenario.environment, key_bits=256, rng=rng)
    oracle = PlaintextSDC(scenario.environment)
    for pu in scenario.pus:
        coordinator.enroll_pu(pu)
        oracle.pu_update(pu)

    # --- round 1: every SU requests -------------------------------------
    print("\nround 1: all SUs request")
    decisions = Counter()
    for su in scenario.sus:
        coordinator.enroll_su(su)
        report = coordinator.run_request_round(su.su_id)
        plain = oracle.process_request(su)
        agrees = "==" if report.granted == plain.granted else "!= ORACLE MISMATCH"
        decisions["granted" if report.granted else "denied"] += 1
        print(f"  {su.su_id} @block {su.block_index:3d}: "
              f"{'granted' if report.granted else 'denied '} "
              f"(oracle {agrees}, {report.timings.total:.2f} s)")
    print(f"  summary: {dict(decisions)}")

    # --- churn: PUs switch channels / turn off ----------------------------
    print("\nchannel churn:")
    switched = scenario.pus[0]
    new_slot = (switched.channel_slot + 1) % scenario.params.num_channels
    sent = coordinator.pu_switch_channel(
        switched.receiver_id, new_slot, signal_strength_mw=1e-4
    )
    oracle.pu_update(switched.switched_to(new_slot, signal_strength_mw=1e-4))
    print(f"  {switched.receiver_id} -> slot {new_slot}: "
          f"{'update sent' if sent else 'virtual switch, no update needed'}")

    off = scenario.pus[1]
    coordinator.pu_switch_channel(off.receiver_id, None)
    oracle.pu_update(off.switched_to(None))
    print(f"  {off.receiver_id} switched off: budget falls back to E")

    # --- round 2: cached requests re-randomised ---------------------------
    print("\nround 2: refreshed (unlinkable) requests after churn")
    for su in scenario.sus:
        client = coordinator.su_client(su.su_id)
        client.precompute_refresh_material()  # offline obfuscator stock
        report = coordinator.run_request_round(su.su_id, reuse_cached_request=True)
        plain = oracle.process_request(su)
        agrees = "==" if report.granted == plain.granted else "!= ORACLE MISMATCH"
        print(f"  {su.su_id}: {'granted' if report.granted else 'denied '} "
              f"(oracle {agrees}, refresh-based, {report.timings.total:.2f} s)")

    # --- accounting ------------------------------------------------------
    summary = summarize_transport(coordinator.transport)
    print("\n" + format_table(
        f"communication totals ({summary.message_count} messages)",
        summary.as_rows(),
    ))


if __name__ == "__main__":
    main()
