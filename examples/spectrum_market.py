#!/usr/bin/env python3
"""A day in the life of a PISA deployment — capacity simulation.

Simulates 24 hours of a city-scale PISA service with the paper's
full-scale parameters (C=100, B=600, n=2048) and Table II's GMP-class
primitive costs: SUs arrive as a Poisson process, PUs flip channels at
the literature's 2.5 switches/hour (only physical switches reach the
SDC), and every protocol phase queues on the single-threaded SDC/STP.

Shows the systems-level picture behind Figure 6's per-request numbers:
where the bottleneck is, when the service saturates, and what the
packed-request extension buys.

Run:  python examples/spectrum_market.py
"""

from repro.analysis.reporting import format_table
from repro.sim import DeploymentSimulator, ServiceCostModel, paper_profile
from repro.watch.scenario import ScenarioConfig, build_scenario


def main() -> None:
    scenario = build_scenario(ScenarioConfig(seed=4, num_sus=3))

    for packing, rate, label in (
        (1, 1.0, "baseline protocol, light load (1 request/h)"),
        (1, 3.0, "baseline protocol, overload (3 requests/h)"),
        (12, 12.0, "packed extension k=12 (12 requests/h)"),
    ):
        # Table II of the paper (GMP prototype on an i5-2400).
        model = ServiceCostModel(
            paper_profile(), num_channels=100, num_blocks=600,
            packing_factor=packing,
        )
        print(f"\n=== {label} ===")
        print(f"  modelled SDC time/request: {model.costs.sdc_per_request_s:.0f} s "
              f"(paper: ≈219 s)  |  STP: {model.costs.stp_convert_s:.0f} s  |  "
              f"saturation ≈{model.saturation_rate_per_hour():.1f} requests/h")
        simulator = DeploymentSimulator(scenario, model, rate, seed=42)
        report = simulator.run(24 * 3600)
        print(format_table("24 h simulation", report.as_table_rows()))

    print("\nTakeaways: the STP's per-cell decrypt+re-encrypt, which the paper")
    print("does not cost out, is the real bottleneck at full scale; packing")
    print("12 cells per ciphertext moves saturation by an order of magnitude.")


if __name__ == "__main__":
    main()
