"""Chaos property: byte-identical transcripts + valid licenses under faults.

Every named fault plan (and the composed schedules) must preserve the
paper's externally visible protocol bytes, on either plane: in memory,
and with the shards and the STP as worker processes over TCP.  One
harness per plane is shared per module, and both judge against the same
in-memory control transcript.
"""

import itertools
import re

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.cluster.router import ShardRouter
from repro.errors import ChaosPlanError, JournalDiskFullError
from repro.netd.plane import SocketClusterCoordinator
from repro.netd.supervisor import ProcessSupervisor
from repro.pisa.storage import decode_shard_state
from repro.resilience import chaos
from repro.resilience.chaos import (
    PLAN_NAMES,
    PLANES,
    ChaosHarness,
    fingerprint_message,
)
from repro.resilience.journal import JournalWriter
from repro.sim.traffic import workload_names
from repro.telemetry import MetricsRegistry


def _noted(result, text: str) -> bool:
    return any(text in note for note in result.notes)


#: What each plan's fault leaves in the verdict, on either plane.
FIRED = {
    "kill-shard": lambda r: r.failovers >= 1,
    "drop-links": lambda r: (
        r.drops_retried == r.fault_stats["dropped"] > 0 and r.failovers == 0
    ),
    "delay-links": lambda r: r.fault_stats["delayed"] > 0,
    "duplicate-links": lambda r: r.fault_stats["duplicated"] > 0,
    "stp-outage": lambda r: _noted(r, "stp outage drained"),
    "coordinator-crash": lambda r: r.replayed_draws > 0,
    "journal-disk-full": lambda r: r.fallback_draws > 0,
    "kill9-then-coldstart": lambda r: _noted(r, "cold-started from"),
    "asymmetric-partition": lambda r: r.failovers == 1 and r.fenced_rejections == 1,
    "split-brain-promote": lambda r: r.failovers == 0 and r.fenced_rejections == 1,
    "clock-skew": lambda r: r.suspects >= 1 and r.failovers == 0,
    "gray-slow-shard": lambda r: (
        r.suspects >= 1 and r.failovers == 0 and _noted(r, "promoted none")
    ),
}


def judge(harness, plans):
    """The table is the oracle: a schedule is refused before anything is
    built, or its run is ``ok`` — transcript, licences, writer audit, and
    the evidence of every plan's row.  Returns the result (``None`` when
    refused)."""
    built = []
    build = harness._build
    harness._build = lambda *args, **kwargs: built.append(args) or build(*args, **kwargs)
    try:
        result = harness.run(plans)
    except ChaosPlanError:
        assert built == [], "refused after a deployment was built"
        return None
    finally:
        del harness._build
    assert result.ok, (result.unfired, result.to_dict())
    return result


@pytest.fixture(scope="module")
def harness():
    return ChaosHarness(seed=7, shards=2, rounds=2, key_bits=256)


@pytest.fixture(scope="module")
def socket_harness():
    return ChaosHarness(seed=7, shards=2, rounds=2, key_bits=256, plane="socket")


class TestEveryPlan:
    @pytest.mark.parametrize("plan", PLAN_NAMES)
    def test_plan_preserves_transcript_and_licenses(self, harness, plan):
        result = harness.run([plan])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        assert result.ok
        assert FIRED[plan](result), result.to_dict()

    @pytest.mark.parametrize("plan", PLAN_NAMES)
    def test_plan_on_sockets(self, socket_harness, plan):
        result = socket_harness.run([plan])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        # Disk-full re-runs its interrupted round on fresh entropy.
        completed = socket_harness.rounds + (plan != "journal-disk-full")
        assert result.exact_segments == completed
        assert result.ok
        assert FIRED[plan](result), result.to_dict()
        # Every run has the store and the journal, and the
        # exactly-one-writer audit reads them.
        assert result.writer_violations == 0
        if plan == "coordinator-crash":
            assert result.replayed_draws > 0
            assert result.fallback_draws == 0  # every byte came from the disk
        elif plan != "journal-disk-full":
            assert result.replayed_draws == -1
        if plan == "kill9-then-coldstart":
            assert any(
                re.fullmatch(
                    r"killed shard-\d+; cold-started from store \+ \d+-record "
                    r"tail \(\d+ applied\)",
                    note,
                )
                for note in result.notes
            ), result.notes
        if plan == "kill-shard":
            # A real SIGKILL, and exactly one restart of the victim.
            assert any(
                re.fullmatch(r"restarts\(shard-\d+\)=1", note)
                for note in result.notes
            ), result.notes
        if result.fenced_rejections:
            # The worker raised it; the error frame carried its type.
            assert _noted(result, "rejected over the wire"), result.notes
            assert not _noted(result, "SPLIT BRAIN")

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

    def test_disk_full_replays_only_what_was_fsynced(self, harness, monkeypatch):
        """A crash loses the journal's unfsynced tail: the replay reads
        the file cut back to the last fsync, no record past it."""
        durable, read = [], []
        write = JournalWriter._write
        read_journal = chaos.read_journal

        def write_until_full(writer, data):
            try:
                write(writer, data)
            except JournalDiskFullError:
                durable.append(writer._synced_offset)
                raise

        def recording_read(source, strict=False):
            read.append(read_journal(source, strict))
            return read[-1]

        monkeypatch.setattr(JournalWriter, "_write", write_until_full)
        monkeypatch.setattr(chaos, "read_journal", recording_read)
        result = harness.run(["journal-disk-full"])
        assert result.ok, result.notes
        [offset], [journal] = durable, read
        assert journal.valid_bytes == offset
        assert not journal.torn
        assert result.replayed_draws == len(journal.draws())

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

    def test_kill_plus_drop_on_sockets(self, socket_harness):
        result = socket_harness.run(["kill-shard", "drop-links"])
        assert result.ok, result.notes
        assert result.failovers >= 1
        assert result.fault_stats["dropped"] > 0

    def test_crash_plus_outage(self, harness):
        result = harness.run(["coordinator-crash", "stp-outage"])
        assert result.ok
        assert result.fallback_draws == 0

    @pytest.mark.parametrize("plane", PLANES)
    def test_delay_links_keep_the_gray_slowdown(self, harness, socket_harness, plane):
        """A link's 5 ms delay stacks on the gray 400 ms, not over it."""
        harness = socket_harness if plane == "socket" else harness
        result = harness.run(["delay-links", "gray-slow-shard"])
        assert result.ok, result.notes
        assert result.suspects >= 1
        assert result.failovers == 0


class TestTheTableIsTheOracle:
    """Every schedule is refused before anything is built, or runs ``ok``
    with every plan fired — judged by the rows' own evidence, since the
    ``FIRED`` table pins each plan alone, where it may also demand that
    nothing failed over."""

    @pytest.mark.parametrize(
        "pair",
        list(itertools.combinations(PLAN_NAMES, 2)),
        ids="+".join,
    )
    def test_every_two_plan_schedule(self, harness, pair):
        judge(harness, list(pair))

    @pytest.mark.parametrize(
        "pair, reason",
        [
            pytest.param(pair, reason, id="+".join(pair))
            for pair, reason in [
                # The disk filled before the scatter: the kill never landed.
                (("kill-shard", "journal-disk-full"), "crashes before kill-shard"),
                # The crash came first, and the outage never drained.
                (("stp-outage", "journal-disk-full"), "crashes before stp-outage"),
                # The checkpoint compacted the journal the replay reads.
                (("coordinator-crash", "kill9-then-coldstart"), "compacts the journal"),
                # The kill landed on the partition's zombie.
                (("kill-shard", "asymmetric-partition"), "live zombie"),
                (("kill9-then-coldstart", "asymmetric-partition"), "live zombie"),
            ]
        ],
    )
    def test_refused_before_the_build(self, harness, pair, reason):
        with pytest.raises(ChaosPlanError, match=reason):
            chaos.resolve_plans(pair, harness.rounds)
        assert judge(harness, list(pair)) is None

    def test_a_disk_full_first_round_refuses_the_gray_slowdown(self):
        # Found by the search: the disk filled before the only round's
        # scatter, so no sub-query was ever slow.
        harness = ChaosHarness(seed=14, shards=3, rounds=1, workload="steady")
        assert judge(harness, ["journal-disk-full", "gray-slow-shard"]) is None

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        plans=st.lists(st.sampled_from(PLAN_NAMES), min_size=1, max_size=3, unique=True),
        rounds=st.integers(1, 3),
        shards=st.integers(2, 3),
        seed=st.integers(0, 2**16),
        workload=st.sampled_from(("",) + workload_names()),
    )
    def test_generated_schedules(self, plans, rounds, shards, seed, workload):
        note(
            f"python -m repro chaos --seed {seed} --plan {','.join(plans)} "
            f"--shards {shards} --rounds {rounds}"
            + (f" --workload {workload}" if workload else "")
        )
        harness = ChaosHarness(
            seed=seed, shards=shards, rounds=rounds, key_bits=256, workload=workload
        )
        judge(harness, plans)


class TestRoundsAreTheBrokersPass:
    """Each round is one epoch of the broker's allocator: it commits every
    shard and leaves no round — and none of its secret blinding —
    pending at the SDC."""

    def test_control_run_commits_and_strands_nothing(self, monkeypatch):
        harness = ChaosHarness(seed=7, shards=2, rounds=2, key_bits=256)
        built = []
        build = harness._build

        def keep(*args, **kwargs):
            coordinator, su_ids = build(*args, **kwargs)
            built.append(coordinator)
            return coordinator, su_ids

        monkeypatch.setattr(harness, "_build", keep)
        record = harness.control()
        [coordinator] = built
        assert coordinator.sdc.pending_rounds == 0
        for replica_set in coordinator.replica_sets.values():
            assert replica_set.primary.last_committed_epoch == harness.rounds - 1
            assert decode_shard_state(replica_set.blob())[1] == harness.rounds - 1
        # request, the two epoch envelopes, the license response
        assert [len(segment) for segment in record.segments[1:]] == [4, 4]


class TestFiredContract:
    @pytest.mark.parametrize("plane", PLANES)
    def test_an_unfired_plan_fails_the_verdict(self, monkeypatch, plane):
        # The router keeps its own scatter: the harness's scatter seam is
        # never installed, so nothing is killed on either plane.
        scatter = ShardRouter.scatter_phase1
        monkeypatch.setattr(
            ShardRouter,
            "scatter_phase1",
            property(lambda router: scatter.__get__(router), lambda router, _: None),
        )
        result = ChaosHarness(plane=plane).run(["kill-shard"])
        # Every byte matches the control — but the run proved nothing
        # about recovery and must not read as a pass.
        assert result.transcript_equal and result.licenses_valid
        assert result.failovers == 0
        assert result.unfired == ("kill-shard",)
        assert not result.ok
        assert result.to_dict()["unfired"] == ["kill-shard"]


class TestSocketPlane:
    def test_split_brain_scrapes_the_fencing_families(self):
        registry = MetricsRegistry()
        result = ChaosHarness(metrics=registry, plane="socket").run(
            ["split-brain-promote"]
        )
        assert result.ok, result.notes
        text = registry.to_prometheus()
        assert 'fencing_tokens_current{shard="shard-0"} 2' in text
        assert 'fenced_requests_total{shard="shard-0"} 1' in text
        assert 'promotions_total{reason="failover"} 1' in text
        assert 'promotions_total{reason="manual"} 1' in text
        assert "heartbeat_rtt_seconds" in text

    def test_coldstarted_worker_boots_from_the_rebuilt_blob(
        self, socket_harness, monkeypatch
    ):
        """The monitor restarts a SIGKILLed worker on its own, from the
        dead set's blob if it is quick; the worker that serves after the
        cold start pulled its bootstrap from the rebuilt set."""
        pulls, rebuilt = [], []
        payload = SocketClusterCoordinator._shard_bootstrap
        kill = SocketClusterCoordinator.kill_shard
        cold_start = SocketClusterCoordinator.cold_start_shard

        def recording_payload(coordinator, replica_set):
            pulls.append(replica_set)
            return payload(coordinator, replica_set)

        def kill_then_resurrect(coordinator, shard_id):
            kill(coordinator, shard_id)
            # The monitor wins the race: a worker boots before the cold
            # start has built the new set.
            coordinator.netd.supervisor.ensure_running(shard_id)

        def recording_cold_start(coordinator, shard_id, tail=None):
            applied = cold_start(coordinator, shard_id, tail)
            rebuilt.append(coordinator.replica_sets[shard_id])
            return applied

        monkeypatch.setattr(
            SocketClusterCoordinator, "_shard_bootstrap", recording_payload
        )
        monkeypatch.setattr(SocketClusterCoordinator, "kill_shard", kill_then_resurrect)
        monkeypatch.setattr(
            SocketClusterCoordinator, "cold_start_shard", recording_cold_start
        )
        result = socket_harness.run(["kill9-then-coldstart"])
        assert result.ok, result.notes
        [fresh] = rebuilt
        victim_pulls = [s for s in pulls if s.shard_id == fresh.shard_id]
        assert victim_pulls[-2] is not fresh  # the resurrected worker's
        assert victim_pulls[-1] is fresh

    def test_a_crashed_front_takes_its_workers_with_it(
        self, socket_harness, monkeypatch
    ):
        """The replay boots fresh workers; none of the crashed
        deployment's is running by then, so no worker serves two fronts."""
        deployments, alive_at_boot = [], []
        start = ProcessSupervisor.start

        def recording_start(supervisor, name, role, extra_args=()):
            if supervisor not in deployments:
                alive_at_boot.append(
                    [
                        worker
                        for earlier in deployments
                        for worker in earlier.worker_names()
                        if earlier.is_running(worker)
                    ]
                )
                deployments.append(supervisor)
            return start(supervisor, name, role, extra_args)

        monkeypatch.setattr(ProcessSupervisor, "start", recording_start)
        result = socket_harness.run(["coordinator-crash"])
        assert result.ok, result.notes
        assert result.replayed_draws > 0 and result.fallback_draws == 0
        # The crashed deployment, then the replay's.
        assert alive_at_boot == [[], []]

    def test_unknown_plane_rejected(self):
        with pytest.raises(ChaosPlanError, match="unknown plane"):
            ChaosHarness(plane="carrier-pigeon")


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
        assert [span.name for span in tracer.roots[0].children] == [
            "phase1", "stp", "phase2", "license"
        ]

    @pytest.mark.parametrize(
        "plane, plan, fired",
        [
            ("memory", "drop-links", lambda result: result.fault_stats["dropped"] > 0),
            # Real worker processes: the SIGKILL + restart happens inside
            # one sub-query span, so the tree still matches the control's.
            ("socket", "kill-shard", lambda result: result.failovers >= 1),
        ],
        ids=["drop", "socket"],
    )
    def test_span_signatures_identical_clean_vs_faulted(
        self, harness, socket_harness, plane, plan, fired
    ):
        from repro.telemetry import Tracer

        if plane == "socket":
            harness = socket_harness
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

    @pytest.fixture(scope="class")
    def socket_storm_harness(self):
        return ChaosHarness(
            seed=7, shards=2, rounds=2, key_bits=256,
            workload="pu-churn-storm", plane="socket",
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

    @pytest.mark.parametrize("plan", ["asymmetric-partition", "kill-shard"])
    def test_churn_storm_under(self, storm_harness, plan):
        result = storm_harness.run([plan])
        assert result.transcript_equal, result.notes
        assert result.licenses_valid, result.notes
        assert result.to_dict()["workload"] == "pu-churn-storm"

    @pytest.mark.parametrize(
        "schedule", ["asymmetric-partition", "kill-shard,drop-links"]
    )
    def test_churn_storm_on_sockets(self, socket_storm_harness, schedule):
        result = socket_storm_harness.run(schedule.split(","))
        assert result.ok, result.notes
        assert result.failovers >= 1
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
