"""Property tests for the deterministic traffic models."""

import math

import pytest

from repro.crypto.rand import DeterministicRandomSource
from repro.errors import ConfigurationError
from repro.geo.grid import BlockGrid
from repro.sim.events import EventQueue
from repro.sim.traffic import (
    PHYSICAL_SWITCH_FRACTION,
    VIRTUAL_SWITCHES_PER_HOUR,
    KIND_PU_SWITCH,
    KIND_SU_MOVE,
    KIND_SU_REQUEST,
    DiurnalTraffic,
    FlashCrowdTraffic,
    PoissonTraffic,
    PuChurnModel,
    RandomWaypointMobility,
    build_schedule,
    exponential_gap,
    resolve_workload,
    unit_float,
    workload_names,
)


def numerical_integral(model, horizon_s, steps=20_000):
    dt = horizon_s / steps
    return sum(
        model.rate_per_s((i + 0.5) * dt) for i in range(steps)
    ) * dt


class TestPrimitives:
    def test_unit_float_range(self):
        rng = DeterministicRandomSource(1)
        draws = [unit_float(rng) for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert sum(draws) / len(draws) == pytest.approx(0.5, abs=0.05)

    def test_exponential_gap_mean(self):
        rng = DeterministicRandomSource(2)
        gaps = [exponential_gap(rng, 4.0) for _ in range(5000)]
        assert sum(gaps) / len(gaps) == pytest.approx(0.25, rel=0.1)

    def test_exponential_gap_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            exponential_gap(DeterministicRandomSource(0), 0.0)


class TestExpectedCounts:
    """∫λ(t)dt closed forms must match numerical integration and the
    empirical arrival totals — "rates integrate to configured totals"."""

    def test_poisson_closed_form(self):
        model = PoissonTraffic(3.0)
        assert model.expected_count(100.0) == pytest.approx(300.0)

    @pytest.mark.parametrize("horizon", [250.0, 1000.0, 1234.5])
    def test_diurnal_closed_form_matches_integral(self, horizon):
        model = DiurnalTraffic(2.0, period_s=1000.0)
        assert model.expected_count(horizon) == pytest.approx(
            numerical_integral(model, horizon), rel=1e-3
        )

    def test_diurnal_whole_period_integrates_to_mean(self):
        model = DiurnalTraffic(2.0, period_s=600.0)
        assert model.expected_count(600.0) == pytest.approx(1200.0, rel=1e-9)

    @pytest.mark.parametrize("horizon", [50.0, 120.0, 400.0])
    def test_flash_crowd_closed_form_matches_integral(self, horizon):
        model = FlashCrowdTraffic(1.5, burst_start_s=100.0, burst_duration_s=60.0)
        assert model.expected_count(horizon) == pytest.approx(
            numerical_integral(model, horizon), rel=1e-3
        )

    def test_empirical_arrivals_match_expected(self):
        """Thinning must deliver the configured total, not just a shape."""
        model = DiurnalTraffic(5.0, period_s=200.0)
        rng = DeterministicRandomSource(3)
        horizon = 1000.0
        stream = model.arrivals(rng)
        count = 0
        for t in stream:
            if t > horizon:
                break
            count += 1
        expected = model.expected_count(horizon)
        assert count == pytest.approx(expected, rel=0.05)

    def test_flash_crowd_burst_density(self):
        model = FlashCrowdTraffic(1.0, burst_start_s=400.0, burst_duration_s=200.0)
        rng = DeterministicRandomSource(4)
        inside = outside = 0
        for t in model.arrivals(rng):
            if t > 1000.0:
                break
            if 400.0 <= t < 600.0:
                inside += 1
            else:
                outside += 1
        # 200 s at 6x vs 800 s at 1x: the burst should hold ~60% of mass.
        assert inside / (inside + outside) == pytest.approx(0.6, abs=0.08)


class TestHomogeneousModels:
    """The paper's load model: Poisson SU arrivals, §VI-A PU churn."""

    def test_poisson_count_matches_rate(self):
        rate, horizon = 1 / 60.0, 180_000.0
        stream = PoissonTraffic(rate).arrivals(DeterministicRandomSource(0))
        count = sum(1 for _ in iter(lambda: next(stream) <= horizon, False))
        assert count == pytest.approx(rate * horizon, rel=0.1)

    def test_poisson_arrivals_increase(self):
        stream = PoissonTraffic(10 / 3600.0).arrivals(DeterministicRandomSource(1))
        times = [next(stream) for _ in range(100)]
        assert times[0] > 0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_same_seed_same_arrivals(self):
        a = PoissonTraffic(30 / 3600.0).arrivals(DeterministicRandomSource(9))
        b = PoissonTraffic(30 / 3600.0).arrivals(DeterministicRandomSource(9))
        assert [next(a) for _ in range(50)] == [next(b) for _ in range(50)]

    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonTraffic(0.0)

    def test_switch_rate_follows_paper(self):
        assert 2.3 <= VIRTUAL_SWITCHES_PER_HOUR <= 2.7

    def test_churn_mean_switch_gap(self):
        """One PU's renewal stream: a switch every 3600/2.5 s on average."""
        events = PuChurnModel().switches(
            DeterministicRandomSource(3), num_pus=1, horizon_s=4_320_000.0,
            num_channels=0,
        )
        times = [e.time_s for e in events]
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert sum(gaps) / len(gaps) == pytest.approx(3600.0 / 2.5, rel=0.1)

    def test_churn_default_physical_fraction(self):
        assert PHYSICAL_SWITCH_FRACTION == 0.2
        events = PuChurnModel().switches(
            DeterministicRandomSource(2), num_pus=10, horizon_s=576_000.0,
            num_channels=0,
        )
        frac = sum(e.physical for e in events) / len(events)
        assert frac == pytest.approx(0.2, abs=0.03)

    def test_churn_validation(self):
        with pytest.raises(ConfigurationError):
            PuChurnModel(0.0)
        with pytest.raises(ConfigurationError):
            PuChurnModel(physical_fraction=1.5)


class TestScheduleDeterminism:
    def build(self, seed, workload="diurnal"):
        return build_schedule(
            workload,
            rng=DeterministicRandomSource(seed).fork("workload"),
            rate_per_s=2.0,
            num_requests=40,
            num_sus=5,
            num_pus=3,
            num_channels=4,
            pu_churn_per_hour=300.0,
            grid=BlockGrid(rows=4, cols=4, block_size_m=100.0),
        )

    @pytest.mark.parametrize("workload", workload_names())
    def test_identical_seeds_identical_digests(self, workload):
        a = self.build(11, workload)
        b = self.build(11, workload)
        assert a.events == b.events
        assert a.digest() == b.digest()

    #: ``build(11, workload).digest()``: the loadtest, the chaos plans and
    #: the golden transcripts consume these draws, so a pin moves only in
    #: a commit that moves nothing else.
    DIGESTS = {
        "steady": "6a5ce319d27333e51f974ccda701b66e452c6c7db38aa5eda762e772cc9bb445",
        "diurnal": "26952257b55581c856b3570f77c130663737710057652fa044ebdad2e348b793",
        "flash-crowd": "91b7c972d29cd53a75a42df412056518f3f1170db2e5eebb2be49ab62b7c4cd6",
        "pu-churn-storm":
            "6cd39986db8be98073c3ec02abca31ce14081a73a4a1e4504a978f4f0f3191c9",
        "mobility": "e5f647a78a3e6803193e7bd7135a534373dbf60a472c64d9d220bfe05e14fcc1",
    }

    @pytest.mark.parametrize("workload", workload_names())
    def test_digest_pinned(self, workload):
        assert self.build(11, workload).digest() == self.DIGESTS[workload]

    def test_different_seeds_differ(self):
        assert self.build(11).digest() != self.build(12).digest()

    def test_events_time_ordered(self):
        events = self.build(7).events
        keys = [(e.time_s,) for e in events]
        assert keys == sorted(keys)

    def test_request_budget_exact(self):
        schedule = self.build(7)
        assert schedule.num_requests == 40

    def test_pu_switch_cap(self):
        schedule = build_schedule(
            "pu-churn-storm",
            rng=DeterministicRandomSource(5).fork("workload"),
            rate_per_s=1.0,
            num_requests=10,
            num_sus=3,
            num_pus=2,
            num_channels=4,
            max_pu_switches=3,
            pu_churn_per_hour=3600.0,
        )
        assert schedule.num_pu_switches <= 3

    def test_mobility_requires_grid(self):
        with pytest.raises(ConfigurationError):
            build_schedule(
                "mobility",
                rng=DeterministicRandomSource(0),
                rate_per_s=1.0,
                num_requests=4,
                num_sus=2,
            )

    def test_mobility_emits_moves(self):
        schedule = self.build(9, "mobility")
        kinds = {e.kind for e in schedule.events}
        assert KIND_SU_MOVE in kinds and KIND_SU_REQUEST in kinds

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workload("tsunami")

    def test_subject_indices_in_range(self):
        for event in self.build(13).events:
            if event.kind == KIND_SU_REQUEST:
                assert 0 <= event.index < 5
            elif event.kind == KIND_PU_SWITCH:
                assert 0 <= event.index < 3
                assert 0 <= event.slot < 4


class TestChurnAndMobility:
    def test_churn_draw_order_is_per_pu(self):
        """PU 0's whole stream draws before PU 1's, so adding a PU never
        perturbs the earlier PUs' events."""
        model = PuChurnModel(virtual_rate_per_hour=3600.0, physical_fraction=0.5)
        two = model.switches(
            DeterministicRandomSource(8), num_pus=2, horizon_s=30.0,
            num_channels=4,
        )
        three = model.switches(
            DeterministicRandomSource(8), num_pus=3, horizon_s=30.0,
            num_channels=4,
        )
        assert [e for e in three if e.index < 2] == two

    def test_churn_physical_fraction(self):
        model = PuChurnModel(virtual_rate_per_hour=3600.0, physical_fraction=0.2)
        events = model.switches(
            DeterministicRandomSource(9), num_pus=4, horizon_s=2000.0,
            num_channels=4,
        )
        frac = sum(e.physical for e in events) / len(events)
        assert frac == pytest.approx(0.2, abs=0.05)

    def test_waypoints_within_grid(self):
        grid = BlockGrid(rows=3, cols=5, block_size_m=50.0)
        starts, moves = RandomWaypointMobility(grid).waypoints(
            DeterministicRandomSource(10), num_sus=4, horizon_s=3600.0
        )
        assert len(starts) == 4
        assert all(0 <= b < grid.num_blocks for b in starts)
        assert all(0 <= e.block < grid.num_blocks for e in moves)
        assert moves  # an hour at walking speed crosses blocks


class TestEventQueueDeterminism:
    def test_tie_break_is_schedule_order(self):
        """Same-instant events pop in scheduling order, every time."""
        for _ in range(3):
            queue = EventQueue()
            for label in ("a", "b", "c", "d"):
                queue.schedule_at(1.0, label)
            assert [queue.pop().kind for _ in range(4)] == ["a", "b", "c", "d"]

    def test_interleaved_sources_stable(self):
        """Merging two event streams is insensitive to push order when
        times differ, and schedule-ordered when they collide."""
        first, second = EventQueue(), EventQueue()
        times = [0.5, 0.5, 1.0, 2.0]
        for t in times:
            first.schedule_at(t, f"t{t}")
        for t in reversed(times):
            second.schedule_at(t, f"t{t}")
        popped_first = [first.pop().time for _ in range(4)]
        popped_second = [second.pop().time for _ in range(4)]
        assert popped_first == popped_second == sorted(times)


def test_schedule_horizon_is_last_event():
    schedule = build_schedule(
        "steady",
        rng=DeterministicRandomSource(3),
        rate_per_s=1.0,
        num_requests=5,
        num_sus=2,
    )
    assert schedule.horizon_s == schedule.events[-1].time_s
    assert math.isfinite(schedule.horizon_s)
