"""Unit tests for the CBRS tiered-access scenario."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.cbrs import (
    TIER_GAA,
    TIER_PAL,
    CbrsConfig,
    TieredAdmission,
    assign_tiers,
    build_cbrs_scenario,
    derive_gaa_capacity,
)
from repro.sim.registry import (
    SCENARIO_CBRS_TIERED,
    build_named_scenario,
    scenario_names,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.watch.scenario import ScenarioConfig


class TestTierAssignment:
    def test_every_nth_is_pal(self):
        tiers = assign_tiers(7)
        assert tiers["su-0"] == TIER_PAL
        assert tiers["su-3"] == TIER_PAL
        assert tiers["su-6"] == TIER_PAL
        assert tiers["su-1"] == TIER_GAA
        assert tiers["su-5"] == TIER_GAA

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CbrsConfig(gaa_capacity=-1)


class TestBuiltScenario:
    def test_capacity_derived_from_watch(self):
        built = build_cbrs_scenario(CbrsConfig(base=ScenarioConfig(seed=5)))
        assert built.capacity >= 1
        assert built.capacity == derive_gaa_capacity(built.scenario)

    def test_explicit_capacity_wins(self):
        built = build_cbrs_scenario(
            CbrsConfig(base=ScenarioConfig(seed=5), gaa_capacity=2)
        )
        assert built.capacity == 2

    def test_base_scenario_unmodified(self):
        """The environment must be a plain build_scenario output so
        socket workers rebuild it from the base config alone."""
        from repro.watch.scenario import build_scenario

        base = ScenarioConfig(seed=5)
        built = build_cbrs_scenario(CbrsConfig(base=base))
        plain = build_scenario(base)
        assert len(built.scenario.sus) == len(plain.sus)
        assert built.scenario.environment.num_channels == (
            plain.environment.num_channels
        )

    def test_registry_names(self):
        assert SCENARIO_CBRS_TIERED in scenario_names()
        assert "uhf" in scenario_names()

    def test_registry_builds_admission(self):
        built = build_named_scenario(
            SCENARIO_CBRS_TIERED, seed=3, num_sus=4, gaa_capacity=2
        )
        admission = built.admission(MetricsRegistry())
        assert admission is not None
        assert admission.capacity == 2

    def test_uhf_has_no_admission(self):
        built = build_named_scenario("uhf", seed=3, num_sus=4)
        assert built.admission(MetricsRegistry()) is None

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            build_named_scenario("mars-band")


def make_admission(capacity=2, num_sus=6, metrics=None):
    return TieredAdmission(
        assign_tiers(num_sus), capacity, metrics
    )


class TestTieredAdmission:
    def test_under_capacity_everyone_admitted(self):
        adm = make_admission(capacity=5)
        assert adm.on_submit("su-1")  # gaa
        assert adm.on_submit("su-0")  # pal
        assert adm.active_leases == {"su-1": TIER_GAA, "su-0": TIER_PAL}

    def test_gaa_rejected_at_capacity(self):
        adm = make_admission(capacity=1)
        assert adm.on_submit("su-1")
        assert not adm.on_submit("su-2")
        assert adm.events[-1] == ("reject", "su-2")

    def test_pal_preempts_oldest_gaa(self):
        adm = make_admission(capacity=2)
        assert adm.on_submit("su-1")  # gaa, oldest
        assert adm.on_submit("su-2")  # gaa
        assert adm.on_submit("su-0")  # pal preempts su-1
        assert adm.active_leases == {"su-2": TIER_GAA, "su-0": TIER_PAL}
        # The ordering the tentpole pins: preempt recorded BEFORE admit.
        assert adm.events[-2:] == [("preempt", "su-1"), ("admit", "su-0")]

    def test_preemption_ordering_event_log(self):
        adm = make_admission(capacity=1)
        adm.on_submit("su-1")
        adm.on_submit("su-0")
        preempt_at = adm.events.index(("preempt", "su-1"))
        admit_at = adm.events.index(("admit", "su-0"))
        assert preempt_at < admit_at

    def test_pal_rejected_when_no_gaa_victim(self):
        adm = make_admission(capacity=1)
        assert adm.on_submit("su-0")  # pal holds the only slot
        assert not adm.on_submit("su-3")  # another pal: nothing to evict
        assert adm.events[-1] == ("reject", "su-3")

    def test_resubmission_refreshes_own_lease(self):
        adm = make_admission(capacity=1)
        assert adm.on_submit("su-1")
        assert adm.on_submit("su-1")  # refresh, not a second slot
        assert len(adm.active_leases) == 1

    def test_refresh_keeps_lease_age(self):
        """A refreshed GAA lease keeps its age — it stays the preferred
        preemption victim."""
        adm = make_admission(capacity=2)
        adm.on_submit("su-1")  # oldest gaa
        adm.on_submit("su-2")
        adm.on_submit("su-1")  # refresh must not make su-2 the oldest
        adm.on_submit("su-0")  # pal preempts
        assert ("preempt", "su-1") in adm.events

    def test_preempted_victim_can_rerequest(self):
        adm = make_admission(capacity=1)
        adm.on_submit("su-1")
        adm.on_submit("su-0")  # preempts su-1
        assert not adm.on_submit("su-1")  # band full of PAL now
        assert adm.active_leases == {"su-0": TIER_PAL}

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            make_admission(capacity=0)

    def test_non_requesting_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            TieredAdmission({"su-0": "incumbent"}, capacity=1)

    def test_unmapped_su_defaults_to_gaa(self):
        adm = make_admission(capacity=1)
        assert adm.tier("su-999") == TIER_GAA


class TestTierMetrics:
    def test_families_pre_registered_at_zero(self):
        metrics = MetricsRegistry()
        make_admission(metrics=metrics)
        prom = metrics.to_prometheus()
        for family in (
            "grants_total", "preemptions_total", "tier_rejections_total"
        ):
            assert f"# TYPE {family} counter" in prom
        for tier in ("incumbent", "pal", "gaa"):
            assert f'grants_total{{tier="{tier}"}} 0' in prom

    def test_counters_track_decisions(self):
        metrics = MetricsRegistry()
        adm = make_admission(capacity=1, metrics=metrics)
        adm.on_submit("su-1")
        adm.on_submit("su-2")          # gaa rejection
        adm.on_submit("su-0")          # pal preempts su-1
        adm.on_granted("su-0")
        adm.on_pu_update()             # incumbent activity
        counters = metrics.snapshot()["counters"]
        assert counters["tier_rejections_total{tier=gaa}"] == 1
        assert counters["preemptions_total{tier=gaa}"] == 1
        assert counters["grants_total{tier=pal}"] == 1
        assert counters["grants_total{tier=incumbent}"] == 1
