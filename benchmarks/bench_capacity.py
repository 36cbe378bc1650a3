"""Capacity analysis — what the paper's per-request numbers imply at scale.

§VI-A reports single-request costs (≈219 s SDC processing on GMP
hardware) and argues SUs tolerate the ≈7-minute round trip.  This bench
asks the follow-on systems question: how many SUs can one SDC+STP pair
actually serve?  Using Table II's GMP constants in the deployment
simulator:

* the **STP**, not the SDC, is the bottleneck (60 000 one-CRT-half
  openings + encryptions ≈ 41 min/request vs the SDC's ≈1.9 min);
* the baseline system saturates around ~1.5 requests/hour;
* the packed extension (k = 12) moves saturation past ~10/hour and cuts
  p95 latency by an order of magnitude at moderate load.
"""

import pytest
from conftest import emit

from repro.analysis.reporting import format_table
from repro.analysis.scaling import PaillierCostProfile
from repro.sim import DeploymentSimulator, ServiceCostModel, WorkloadConfig
from repro.watch.scenario import ScenarioConfig, build_scenario

PAPER_PROFILE = PaillierCostProfile(
    key_bits=2048, encryption_s=0.030378, decryption_s=0.021170,
    hom_add_s=4e-6, hom_sub_s=7.3e-5, hom_scale_small_s=1.564e-3,
    hom_scale_full_s=0.018867, rerandomize_s=0.030,
)

_ROWS = []


@pytest.fixture(scope="module")
def sim_scenario():
    return build_scenario(ScenarioConfig(seed=4, num_sus=3))


@pytest.mark.parametrize("packing,rate", [(1, 0.5), (1, 2.5), (12, 5.0), (12, 20.0)])
def test_capacity_point(benchmark, sim_scenario, packing, rate):
    model = ServiceCostModel(
        PAPER_PROFILE, num_channels=100, num_blocks=600, packing_factor=packing
    )
    sim = DeploymentSimulator(
        sim_scenario, model,
        WorkloadConfig(su_requests_per_hour=rate, seed=9),
    )
    report = benchmark.pedantic(lambda: sim.run(12 * 3600), rounds=1, iterations=1)
    _ROWS.append((packing, rate, model, report))


def test_zzz_render(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for packing, rate, model, report in sorted(_ROWS, key=lambda r: (r[0], r[1])):
        rows.append((
            f"k={packing:2d}, λ={rate:4.1f}/h "
            f"(saturation ≈{3600 / model.costs.stp_convert_s:.1f}/h)",
            f"p95 {report.latency_percentile_s(95) / 60:6.1f} min | "
            f"STP util {report.stp_utilization:4.0%} | "
            f"served {report.num_requests}",
        ))
    emit(format_table(
        "Capacity (GMP-class hardware, C=100, B=600): STP is the bottleneck",
        rows,
    ))
    # Claims: packing multiplies the saturation rate; under overload the
    # p95 latency blows up relative to an uncontended system.
    by_key = {(p, r): rep for p, r, _, rep in _ROWS}
    assert (
        by_key[(1, 2.5)].latency_percentile_s(95)
        > 2 * by_key[(1, 0.5)].latency_percentile_s(95)
    )
    assert (
        by_key[(12, 5.0)].latency_percentile_s(95)
        < by_key[(1, 2.5)].latency_percentile_s(95) / 3
    )
