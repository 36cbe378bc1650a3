"""Chaos property: byte-identical transcripts + valid licenses under faults.

Every named fault plan (and two composed schedules) must preserve the
paper's externally visible protocol bytes.  One harness is shared per
module so the control transcript is built once.
"""

import pytest

from repro.errors import ChaosPlanError
from repro.resilience.chaos import (
    PLAN_NAMES,
    ChaosHarness,
    fingerprint_message,
)

@pytest.fixture(scope="module")
def harness():
    return ChaosHarness(seed=7, shards=2, rounds=2, key_bits=256)


class TestEveryPlan:
    @pytest.mark.parametrize("plan", PLAN_NAMES)
    def test_plan_preserves_transcript_and_licenses(self, harness, plan):
        result = harness.run([plan])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        assert result.ok

    def test_coordinator_crash_replays_from_journal_only(self, harness):
        result = harness.run(["coordinator-crash"])
        assert result.replayed_draws > 0
        assert result.fallback_draws == 0  # every byte came from the disk
        assert result.exact_segments == harness.rounds + 1  # enrol + rounds

    def test_disk_full_replays_completed_rounds_exactly(self, harness):
        result = harness.run(["journal-disk-full"])
        assert result.ok
        # The interrupted round re-runs on fresh entropy: fallback draws
        # are expected, and one segment is excluded from byte-equality.
        assert result.fallback_draws > 0
        assert result.exact_segments == harness.rounds  # final round re-run

    def test_kill_shard_fails_over_once(self, harness):
        result = harness.run(["kill-shard"])
        assert result.ok
        assert result.failovers >= 1

    def test_drop_links_retries_in_place(self, harness):
        result = harness.run(["drop-links"])
        assert result.ok
        assert result.fault_stats["dropped"] > 0
        assert result.drops_retried == result.fault_stats["dropped"]
        assert result.failovers == 0  # drops never escalate to failover

    def test_stp_outage_drains_without_rebuilding_messages(self, harness):
        result = harness.run(["stp-outage"])
        assert result.ok
        assert any("stp outage drained" in note for note in result.notes)

    def test_kill9_coldstart_rebuilds_from_store_byte_exactly(self, harness):
        result = harness.run(["kill9-then-coldstart"])
        assert result.ok
        # The journal was compacted to a marker, the shard rebuilt from
        # the durable store, and *every* segment (enrol + each round)
        # still matches the uninterrupted control byte for byte.
        assert result.exact_segments == harness.rounds + 1
        assert any(note.startswith("checkpoint ") for note in result.notes)
        assert any("cold-started from" in note for note in result.notes)


class TestComposedSchedules:
    def test_kill_plus_drop(self, harness):
        result = harness.run(["kill-shard", "drop-links"])
        assert result.ok
        assert result.failovers >= 1
        assert result.fault_stats["dropped"] > 0

    def test_crash_plus_outage(self, harness):
        result = harness.run(["coordinator-crash", "stp-outage"])
        assert result.ok
        assert result.fallback_draws == 0


class TestScheduleValidation:
    def test_unknown_plan_rejected(self, harness):
        with pytest.raises(ChaosPlanError):
            harness.run(["meteor-strike"])

    def test_empty_schedule_rejected(self, harness):
        with pytest.raises(ChaosPlanError):
            harness.run([])

    def test_two_crashing_plans_rejected(self, harness):
        with pytest.raises(ChaosPlanError):
            harness.run(["coordinator-crash", "journal-disk-full"])

    def test_nonpositive_rounds_rejected(self):
        with pytest.raises(ChaosPlanError):
            ChaosHarness(rounds=0)


class TestFingerprint:
    def test_depends_on_link_identity(self):
        class Msg:
            @staticmethod
            def to_bytes() -> bytes:
                return b"payload"

        base = fingerprint_message(Msg(), "sdc", "stp")
        assert fingerprint_message(Msg(), "sdc", "stp") == base
        assert fingerprint_message(Msg(), "stp", "sdc") != base


class TestTracedChaos:
    """Tracing is a pure observer of the chaos harness.

    The tracer draws span ids from its own RNG, so a traced control run
    must reproduce the untraced transcript byte for byte — and because
    retries/failovers happen *inside* one logical sub-query span, a
    faulted run's span tree has the same structural signature as the
    clean run's.
    """

    def test_traced_control_transcript_is_byte_identical(self, harness):
        from repro.telemetry import Tracer

        untraced = harness.control()
        tracer = Tracer()
        traced = harness.control(tracer=tracer)
        assert traced.segments == untraced.segments
        assert traced.granted == untraced.granted
        assert len(tracer.roots) == harness.rounds
        assert all(root.name == "round" for root in tracer.roots)

    @pytest.mark.parametrize(
        "plan, fired",
        [
            ("drop-links", lambda result: result.fault_stats["dropped"] > 0),
            # Real worker processes: the SIGKILL + restart happens inside
            # one sub-query span, so the tree still matches the control's.
            ("proc-kill-shard", lambda result: result.failovers >= 1),
        ],
        ids=["drop", "proc"],
    )
    def test_span_signatures_identical_clean_vs_faulted(self, harness, plan, fired):
        from repro.telemetry import Tracer

        clean = Tracer()
        harness.control(tracer=clean)
        faulted = Tracer()
        result = harness.run([plan], tracer=faulted)
        assert result.ok
        assert fired(result)
        assert [r.signature() for r in clean.roots] == [
            r.signature() for r in faulted.roots
        ]

    def test_traced_faulted_run_still_transcript_equal(self, harness):
        from repro.telemetry import Tracer

        result = harness.run(["kill-shard"], tracer=Tracer())
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes


class TestWorkloadComposition:
    """Chaos plans composed with named workloads (PR 10 tentpole):
    the workload script drives round subjects and inter-round PU churn
    identically in control and faulted runs, so transcript byte-equality
    still holds under faults."""

    @pytest.fixture(scope="class")
    def storm_harness(self):
        return ChaosHarness(
            seed=7, shards=2, rounds=2, key_bits=256,
            workload="pu-churn-storm",
        )

    def test_flash_crowd_plus_kill_shard(self):
        harness = ChaosHarness(
            seed=7, shards=2, rounds=2, key_bits=256, workload="flash-crowd"
        )
        result = harness.run(["kill-shard"])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        assert result.workload == "flash-crowd"
        assert result.failovers >= 1

    @pytest.mark.parametrize("plan", ["asymmetric-partition", "proc-kill-shard"])
    def test_churn_storm_under(self, storm_harness, plan):
        result = storm_harness.run([plan])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        assert result.to_dict()["workload"] == "pu-churn-storm"

    def test_churn_storm_script_carries_updates(self, storm_harness):
        storm_harness.control()  # compiles the script on first build
        script = storm_harness._script
        assert script is not None and len(script) == storm_harness.rounds
        assert sum(len(churn) for _, churn in script) >= 1

    def test_script_is_stable_across_runs(self, storm_harness):
        before = storm_harness._script
        storm_harness.run(["drop-links"])
        assert storm_harness._script == before

    def test_workload_survives_crash_replay(self):
        harness = ChaosHarness(
            seed=7, shards=2, rounds=2, key_bits=256,
            workload="pu-churn-storm",
        )
        result = harness.run(["coordinator-crash"])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        # Churn encryption randomness replays from the journal, never
        # from the differently seeded fallback source.
        assert result.fallback_draws == 0

    def test_unknown_workload_rejected_up_front(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ChaosHarness(workload="tsunami")

    def test_legacy_harness_has_no_script(self, harness):
        harness.control()
        assert harness._script is None
        assert harness.run(["drop-links"]).workload == ""
