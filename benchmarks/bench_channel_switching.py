"""§VI-A channel-switching load — the virtual-channel optimisation.

The paper (citing [16]): viewers switch virtual channels 2.3-2.7 times
per hour, but "the rate of switching between physical channels is much
lower", and only physical switches need an SDC update.  This bench
simulates a 100-PU population over 24 hours and quantifies the update
traffic the optimisation saves, plus the resulting SDC load against the
measured per-update cost.
"""

import pytest
from conftest import emit

from repro.analysis.reporting import format_table
from repro.crypto.rand import DeterministicRandomSource
from repro.sim.traffic import VIRTUAL_SWITCHES_PER_HOUR, PuChurnModel

NUM_PUS = 100
HOURS = 24.0
PHYSICAL_FRACTION = 0.2
#: Paper: the SDC handles one PU update in ≈2.6 s (GMP hardware).
PAPER_UPDATE_SECONDS = 2.6

_RESULTS = {}


def test_switch_traffic(benchmark):
    def simulate():
        switches = PuChurnModel(physical_fraction=PHYSICAL_FRACTION).switches(
            DeterministicRandomSource(7), NUM_PUS, HOURS * 3600, num_channels=0
        )
        physical = sum(switch.physical for switch in switches)
        return physical, len(switches) - physical

    _RESULTS["traffic"] = benchmark.pedantic(simulate, rounds=1, iterations=1)


def test_zzz_render(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    physical, virtual_only = _RESULTS["traffic"]
    total = physical + virtual_only
    expected_total = NUM_PUS * VIRTUAL_SWITCHES_PER_HOUR * HOURS
    sdc_busy_s = physical * PAPER_UPDATE_SECONDS
    naive_busy_s = total * PAPER_UPDATE_SECONDS
    emit(format_table(
        f"Channel switching, {NUM_PUS} PUs over {HOURS:.0f} h "
        f"({VIRTUAL_SWITCHES_PER_HOUR}/h per viewer)",
        [
            ("total channel switches", f"{total} (expected ≈{expected_total:.0f})"),
            ("physical (SDC updates needed)", f"{physical} ({physical / total:.0%})"),
            ("virtual-only (suppressed)", f"{virtual_only}"),
            ("SDC update load with optimisation",
             f"{sdc_busy_s / 3600:.2f} h/day ({sdc_busy_s / (HOURS * 36):.1f}% busy)"),
            ("without the optimisation",
             f"{naive_busy_s / 3600:.2f} h/day ({naive_busy_s / (HOURS * 36):.1f}% busy)"),
        ],
    ))
    # Claims: the Poisson machinery hits the configured rates, and the
    # optimisation cuts update traffic by the physical fraction.
    assert total == pytest.approx(expected_total, rel=0.1)
    assert physical / total == pytest.approx(PHYSICAL_FRACTION, abs=0.05)
    assert sdc_busy_s < 0.3 * naive_busy_s
