"""Deterministic chaos harness for the sharded PISA deployment.

The harness runs the *same seeded deployment twice* — once clean
(control), once with a composed schedule of injected faults — and
asserts the property the paper's protocol depends on:

    **the protocol transcript is byte-identical and every issued
    license verifies**, no matter which components were killed,
    which wires dropped/delayed/duplicated messages, or
    where the journal device failed.

Faults are *fault plans*: named, seeded, composable units
(``kill-shard``, ``drop-links``, ``coordinator-crash``, ...) that arm
transport faults (:meth:`repro.net.transport.InMemoryTransport.inject_faults`),
kill processes, cut the SDC↔STP wire, or fill the journal device at a
deterministic point.  ``repro chaos --seed 7 --plan kill-shard,drop-links``
runs one composed schedule from the command line.

Transcript capture happens in
:class:`~repro.net.recording.TranscriptTransport`, which fingerprints
every *protocol-level* message (SU/PU ↔ SDC ↔ STP) after a successful
send.  Router↔shard sub-queries are excluded on purpose: failover
legitimately re-sends them, and the protocol's externally visible bytes
are exactly the non-shard links.  Recording *post-send* makes transient
faults transparent: a dropped message was never delivered (not
recorded), a retried one is recorded once — the logical
delivered-exactly-once transcript.

Plans declare what they need (``wants_journal`` / ``wants_store``) and
the harness builds the faulted deployment to match.  Each plan is
written once against one fault surface (the coordinator's
``kill_shard`` / ``slow_shard``, fence/promote/commit, the transport's
link faults); ``plane="socket"`` runs it on worker processes over TCP
(:class:`repro.netd.plane.SocketClusterCoordinator`, which takes the
journal and the store as the in-memory coordinator does), where a kill
is a real ``SIGKILL`` and a stale commit a wire-typed ``FencedError``.
The control is always the cached in-memory run, so a socket pass proves
cross-plane determinism too.

Two plans exercise the write-ahead journal end to end:

* ``coordinator-crash`` — SIGKILL-equivalent mid-phase-2 (after the
  phase-2 randomness barrier, before the license leaves).  The journal's
  unfsynced tail is discarded, then the deployment is **rebuilt and
  replayed** from the journal with a *differently seeded* fallback RNG;
  the replay must match the control transcript byte for byte with zero
  fallback draws.
* ``journal-disk-full`` — the journal device fills mid-round.  The
  typed :class:`~repro.errors.JournalDiskFullError` must surface, the
  written prefix must stay readable, and replaying that prefix must
  reproduce every *completed* round byte-identically (the interrupted
  round re-runs on fresh randomness — its draws never left the process,
  so no external bytes constrain it — and must still yield a verifying
  license).
"""

from __future__ import annotations

import errno
import io
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.cluster.coordinator import ClusterCoordinator
from repro.crypto.rand import DeterministicRandomSource
from repro.errors import (
    ChaosPlanError,
    FencedError,
    JournalDiskFullError,
    LinkDownError,
    MessageDroppedError,
)
from repro.net.recording import TranscriptTransport, fingerprint_message
from repro.resilience.journal import EpochJournal, JournalWriter, read_journal
from repro.resilience.policy import RetryPolicy, run_with_policy
from repro.resilience.recovery import (
    check_exactly_one_writer,
    replay_sources,
    summarize,
)
from repro.service.batching import SDC_ENDPOINT, STP_ENDPOINT, BatchAllocator, Epoch
from repro.sim.traffic import (
    KIND_PU_SWITCH,
    KIND_SU_REQUEST,
    build_schedule,
    resolve_workload,
)
from repro.store import Checkpointer, SqliteStateStore, recover
from repro.watch.scenario import ScenarioConfig, build_scenario

__all__ = [
    "ChaosResult",
    "ChaosHarness",
    "PLANES",
    "PLAN_NAMES",
    "fingerprint_message",
]

#: License clock both runs freeze to, so ``issued_at`` is deterministic.
FROZEN_CLOCK = 1_700_000_000.0

#: Sends the harness performs are retried under this policy — drops are
#: transient, and a cut SDC↔STP wire queues the message until the plan
#: drains the outage.
SEND_POLICY = RetryPolicy(
    max_attempts=8,
    base_backoff_s=0.0,
    backoff_cap_s=0.0,
    retryable=(LinkDownError, MessageDroppedError),
)


class _InjectedCrash(Exception):
    """Stand-in for SIGKILL: unwinds the harness, never handled below it."""


class _DiskFullFile(io.BytesIO):
    """A BytesIO that models a filling disk.

    Once ``limit`` is set, a write that would exceed it lands *partially*
    (like a real short write at the end of a device) and raises
    ``ENOSPC`` — exercising both the typed error path and the
    torn-record tolerance of the journal reader.
    """

    def __init__(self) -> None:
        super().__init__()
        self.limit: int | None = None

    def write(self, data):
        if self.limit is not None and self.tell() + len(data) > self.limit:
            room = max(0, self.limit - self.tell())
            if room:
                super().write(data[:room])
            raise OSError(errno.ENOSPC, "chaos: journal device full")
        return super().write(data)

    def close(self) -> None:  # keep the buffer readable post-"crash"
        pass


# --------------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------------- #


class FaultPlan:
    """One named, composable fault. Subclasses override the hooks."""

    name = "noop"
    #: Plans whose fault needs the write-ahead journal (a crash replay
    #: or a checkpoint).
    wants_journal = False
    #: Plans that run on real disk: the deployment's store is a SQLite
    #: :class:`~repro.store.sqlite.SqliteStateStore` in a temp dir, and
    #: a path-backed journal comes with it, which gives the
    #: exactly-one-writer audit a journal to read.
    wants_store = False
    #: Plans whose faulted run ends in a crash + journal replay.
    crashes = False

    def arm(self, ctx: "_RunContext") -> None:
        """Called once, after the deployment is built, before round 0."""

    def before_round(self, ctx: "_RunContext", round_index: int) -> None:
        """Called before each round of the faulted run."""

    def on_send_retry(self, ctx: "_RunContext", exc, link) -> None:
        """Called when a harness-level send is about to be retried."""

    def finish(self, ctx: "_RunContext") -> None:
        """Called once after the last round, while the deployment is up."""


def _inside_next_scatter(router, fault) -> None:
    """Run ``fault(requests)`` once, inside the next phase-1 scatter,
    after the round's phase-1 randomness is drawn."""
    real_scatter = router.scatter_phase1

    def fault_then_scatter(requests, parent=None):
        router.scatter_phase1 = real_scatter
        fault(requests)
        return real_scatter(requests, parent=parent)

    router.scatter_phase1 = fault_then_scatter


class _KillShard(FaultPlan):
    """Kill the first shard round 1's phase-1 scatter addresses.

    The router must fail over (on sockets: restart and re-bootstrap the
    SIGKILLed worker) and re-send the identical sub-query bytes, since
    phase randomness was drawn before the scatter.
    """

    name = "kill-shard"

    def before_round(self, ctx, round_index):
        if round_index != min(1, ctx.rounds - 1):
            return
        ctx.fault_missed = True

        def kill(requests):
            self.victim = next(iter(requests))
            ctx.coordinator.kill_shard(self.victim)
            ctx.fault_missed = False
            ctx.note(f"killed {self.victim} in round {round_index}'s phase-1 scatter")

        _inside_next_scatter(ctx.coordinator.router, kill)

    def finish(self, ctx):
        if ctx.fault_missed:
            ctx.note("fault never fired: no phase-1 scatter ran after arming")
        elif ctx.plane == "socket":
            restarts = ctx.coordinator.netd.supervisor.restarts(self.victim)
            ctx.note(f"restarts({self.victim})={restarts}")


class _DropLinks(FaultPlan):
    """Drop the first send on every router↔shard link, every round."""

    name = "drop-links"

    def before_round(self, ctx, round_index):
        for shard_id in ctx.coordinator.router.shard_ids:
            ctx.transport.inject_faults("router", shard_id, drop=1)


class _DelayLinks(FaultPlan):
    """Delay two sends per shard link per round by 5 ms."""

    name = "delay-links"

    def before_round(self, ctx, round_index):
        for shard_id in ctx.coordinator.router.shard_ids:
            ctx.transport.inject_faults(
                "router", shard_id, delay_s=0.005, delay_count=2
            )


class _DuplicateLinks(FaultPlan):
    """Duplicate one send per shard link per round (wire-level)."""

    name = "duplicate-links"

    def before_round(self, ctx, round_index):
        for shard_id in ctx.coordinator.router.shard_ids:
            ctx.transport.inject_faults("router", shard_id, duplicate=1)


class _StpOutage(FaultPlan):
    """Cut the SDC→STP wire before round 1; drain after two retries.

    Models an STP outage with queue-and-drain degradation: the blinded
    sign-extraction request is *held* (the harness retries the exact
    same bytes) rather than rebuilt, so the transcript is unchanged.
    """

    name = "stp-outage"
    OUTAGE_RETRIES = 2

    def before_round(self, ctx, round_index):
        if round_index == min(1, ctx.rounds - 1):
            ctx.transport.fail_link(SDC_ENDPOINT, STP_ENDPOINT)
            ctx.stp_outage_remaining = self.OUTAGE_RETRIES
            ctx.note(f"cut sdc->stp before round {round_index}")

    def on_send_retry(self, ctx, exc, link):
        if link != (SDC_ENDPOINT, STP_ENDPOINT) or not isinstance(exc, LinkDownError):
            return
        ctx.stp_outage_remaining -= 1
        ctx.stp_drained_sends += 1
        if ctx.stp_outage_remaining <= 0:
            ctx.transport.restore_link(SDC_ENDPOINT, STP_ENDPOINT)
            ctx.note("stp outage drained; link restored")


class _CoordinatorCrash(FaultPlan):
    """SIGKILL the coordinator mid-phase-2 of the last round.

    The crash fires *inside* the front's phase 2 — after the phase-2
    randomness barrier and the ``ΣQ̃`` product, before the license
    leaves — exactly the window the write-ahead discipline exists for.
    """

    name = "coordinator-crash"
    wants_journal = True
    crashes = True

    def before_round(self, ctx, round_index):
        if round_index != ctx.rounds - 1:
            return
        sdc = ctx.coordinator.sdc
        real_q_sum = sdc._q_sum

        def q_sum_then_die(pending, response):
            # ΣQ̃ computed, then the kill lands
            real_q_sum(pending, response)
            raise _InjectedCrash(
                f"coordinator killed mid-phase-2 of round {round_index}"
            )

        sdc._q_sum = q_sum_then_die
        ctx.note(f"armed coordinator kill in round {round_index} phase 2")


class _JournalDiskFull(FaultPlan):
    """Fill the journal device 2 kB into the last round's draws."""

    name = "journal-disk-full"
    wants_journal = True
    crashes = True
    HEADROOM_BYTES = 2048

    def before_round(self, ctx, round_index):
        if round_index == ctx.rounds - 1:
            ctx.journal_device.limit = (
                ctx.journal_device.tell() + self.HEADROOM_BYTES
            )
            ctx.note(f"journal device limited before round {round_index}")


class _Kill9ColdStart(FaultPlan):
    """SIGKILL a shard mid-epoch; cold-start it from disk.

    The disaster drill for the durable store: before the last round the
    epoch is committed (snapshots land in SQLite) and the journal is
    checkpointed (compacted to a marker).  Then, *inside* the last
    round's phase-1 scatter — after the phase-1 randomness barrier, with
    the round's draws sitting only in the journal tail — one shard is
    killed through the coordinator's fault surface (on sockets a real
    SIGKILL of its worker), a fresh replica set is rebuilt purely from
    the SQLite store plus the journal tail
    (:func:`repro.store.checkpoint.recover` →
    :meth:`ClusterCoordinator.cold_start_shard`), reading nothing of the
    dead one, and the scatter proceeds against it.  Because the restored state must be
    byte-identical for the round to produce the control run's exact
    ``Ṽ`` matrix, transcript equality over *every* segment is the
    proof that disk state is byte-exact.
    """

    name = "kill9-then-coldstart"
    wants_journal = True
    wants_store = True

    def before_round(self, ctx, round_index):
        if round_index != ctx.rounds - 1:
            return
        coordinator = ctx.coordinator
        # Epoch commit → per-shard snapshots land in the durable store;
        # checkpoint → the journal forgets everything the store holds.
        coordinator.sdc.commit_epoch(round_index)
        stats = ctx.checkpointer.checkpoint(ctx.journal_writer)
        ctx.note(
            f"checkpoint {stats.checkpoint_id}: "
            f"{stats.records_compacted} records compacted, journal "
            f"{stats.journal_bytes_before}→{stats.journal_bytes_after} B"
        )
        router = coordinator.router

        def kill9_then_coldstart(_requests):
            victim = router.shard_ids[0]
            # SIGKILL semantics: no flush, no goodbye snapshot.  Recovery
            # sees only the disk.
            coordinator.kill_shard(victim)
            recovered = recover(ctx.store, ctx.journal_path)
            applied = coordinator.cold_start_shard(victim, recovered.tail)
            ctx.note(
                f"killed {victim}; cold-started from "
                f"store + {len(recovered.tail.records)}-record tail "
                f"({applied} applied)"
            )

        _inside_next_scatter(router, kill9_then_coldstart)
        ctx.note(f"armed kill9+coldstart in round {round_index} phase 1")


def _stale_commit(ctx, victim, writer, epoch, stale_token, rejected, landed):
    """A deposed ``writer`` commits under its dead lease; record the outcome."""
    try:
        writer.commit_epoch(epoch, fence_token=stale_token)
    except FencedError as exc:
        ctx.fenced_rejections += 1
        ctx.coordinator.fencing.note_rejection(victim)
        # On sockets the worker raised it and the error frame carried it.
        origin = " over the wire" if ctx.plane == "socket" else ""
        ctx.note(f"{rejected}{origin}: {exc}")
    else:
        ctx.note(f"SPLIT BRAIN: {landed}")


class _AsymmetricPartition(FaultPlan):
    """Cut only the router→shard direction; the shard itself stays alive.

    The nasty half of a partition: the router cannot reach the primary,
    but the primary is healthy and would happily keep writing.  The
    router's failover path must fence *before* promoting, so when the
    partition heals (modelled as healing once the failover completes —
    the classic transient switch brown-out), the isolated old primary's
    write attempt dies with :class:`~repro.errors.FencedError` instead
    of forking history.
    """

    name = "asymmetric-partition"
    # Real disk so the exactly-one-writer audit runs over the
    # fence/writer provenance this drill produces.
    wants_store = True

    def before_round(self, ctx, round_index):
        if round_index != min(1, ctx.rounds - 1):
            return
        router = ctx.coordinator.router
        victim = router.shard_ids[0]
        replica_set = router.replica_set(victim)
        zombie = replica_set.primary
        # The incumbent holds a real lease before the cut; an unfenced
        # (token-0) writer is exempt from fencing by design, which would
        # let the zombie's later attempt slip through unjudged.
        incumbent = ctx.coordinator.fencing.bump(victim, "manual")
        replica_set.install_fence(incumbent.token)
        stale = incumbent.token
        ctx.transport.fail_link("router", victim)
        ctx.note(f"cut router->{victim} (shard alive) before round {round_index}")
        real_recover = router._recover

        def recover_then_heal(shard_id, reason="failover"):
            real_recover(shard_id, reason=reason)
            if shard_id != victim:
                return
            router._recover = real_recover
            ctx.transport.restore_link("router", victim)
            ctx.note(f"partition healed after fence+promote of {victim}")
            # The old primary comes back from the partition and tries to
            # finish the write it was holding — with its dead lease.
            _stale_commit(
                ctx, victim, zombie, round_index, stale,
                rejected="zombie write rejected",
                landed=f"zombie write on {victim} was accepted",
            )

        router._recover = recover_then_heal


class _SplitBrainPromote(FaultPlan):
    """Fence-then-promote while the old primary is still serving.

    The direct split-brain drill: the authority deposes a perfectly
    healthy primary (operator-driven promotion), and the deposed
    incarnation — never crashed, never partitioned — immediately tries
    to commit with the lease it still holds.  Exactly one writer per
    shard must survive the journal/store audit, and the transcript must
    not move a byte.
    """

    name = "split-brain-promote"
    wants_store = True

    def before_round(self, ctx, round_index):
        if round_index != ctx.rounds - 1:
            return
        coordinator = ctx.coordinator
        router = coordinator.router
        victim = router.shard_ids[0]
        replica_set = router.replica_set(victim)
        # Give the incumbent a real lease and let it commit under it —
        # the journal now has a writer record to audit against.
        incumbent = coordinator.fencing.bump(victim, "manual")
        replica_set.install_fence(incumbent.token)
        coordinator.sdc.commit_epoch(round_index)
        zombie = replica_set.primary
        # Depose it while it is alive and serving: bump, persist, install
        # on every replica (the zombie included), only then promote.
        successor = coordinator.fencing.bump(victim, "failover")
        replica_set.install_fence(successor.token)
        replica_set.promote()
        ctx.note(
            f"promoted {victim} while old primary alive "
            f"(lease {incumbent.token}->{successor.token})"
        )
        _stale_commit(
            ctx, victim, zombie, round_index + 1, incumbent.token,
            rejected="old primary's post-fence write rejected",
            landed=f"old primary of {victim} committed",
        )
        # The successor commits under its own lease when the round's epoch
        # ends; the audit must see writer tokens that never regress behind
        # the fence.


class _ClockSkew(FaultPlan):
    """Skew one shard's heartbeat clock a minute into the past.

    A skewed clock makes a healthy shard's heartbeat *look* ancient.
    Liveness checking must classify alive-primary-with-stale-heartbeat
    as *suspect* (flag and count it) rather than promote — promoting on
    staleness alone is the spurious failover gray-failure folklore warns
    about.
    """

    name = "clock-skew"
    wants_store = True
    SKEW_S = 60.0

    def before_round(self, ctx, round_index):
        if round_index != min(1, ctx.rounds - 1):
            return
        router = ctx.coordinator.router
        victim = router.shard_ids[-1]
        replica_set = router.replica_set(victim)
        replica_set.record_heartbeat(now=time.monotonic() - self.SKEW_S)
        promoted = router.check_liveness()
        ctx.note(
            f"skewed {victim} heartbeat {self.SKEW_S:.0f}s into the past; "
            f"liveness promoted {list(promoted) or 'nothing'}, "
            f"suspect={replica_set.suspect}"
        )


class _GraySlowShard(FaultPlan):
    """Latency injection below the heartbeat-death threshold.

    The shard answers everything — slowly.  Heartbeats never expire, so
    naive liveness sees a healthy fleet; the RTT quantile must flag the
    outlier as suspect — detection only, the shard keeps serving — with
    zero promotions burned.
    """

    name = "gray-slow-shard"
    wants_store = True
    DELAY_S = 0.4

    def arm(self, ctx):
        victim = ctx.coordinator.router.shard_ids[0]
        ctx.coordinator.slow_shard(victim, self.DELAY_S)
        ctx.note(
            f"armed {self.DELAY_S * 1000:.0f} ms gray slowdown on {victim}"
        )

    def finish(self, ctx):
        stats = ctx.coordinator.router.stats
        if stats.suspects:
            ctx.note(
                f"router flagged {stats.suspects} suspect(s), "
                f"promoted {stats.failovers or 'none'}"
            )


_PLAN_TYPES = (
    _KillShard,
    _DropLinks,
    _DelayLinks,
    _DuplicateLinks,
    _StpOutage,
    _CoordinatorCrash,
    _JournalDiskFull,
    _Kill9ColdStart,
    _AsymmetricPartition,
    _SplitBrainPromote,
    _ClockSkew,
    _GraySlowShard,
)

#: Every plan, in the order ``--plan all`` runs them.
PLAN_NAMES: tuple[str, ...] = tuple(plan.name for plan in _PLAN_TYPES)
_PLANS = {plan.name: plan for plan in _PLAN_TYPES}
#: Where a faulted run can stand: in-process, or worker processes on TCP.
PLANES = ("memory", "socket")


def _resolve_plans(names) -> list[FaultPlan]:
    plans = []
    for name in names:
        plan_type = _PLANS.get(name)
        if plan_type is None:
            raise ChaosPlanError(
                f"unknown fault plan {name!r} (known: {', '.join(_PLANS)})"
            )
        plans.append(plan_type())
    if not plans:
        raise ChaosPlanError("a chaos schedule needs at least one fault plan")
    if any(isinstance(p, _JournalDiskFull) for p in plans) and any(
        p.wants_store for p in plans
    ):
        # A store plan swaps the in-memory journal device for a file,
        # and a file cannot be filled on cue: the fault would never fire.
        raise ChaosPlanError(
            "journal-disk-full fills the in-memory journal device; it does "
            "not compose with a plan that runs on the store's journal file"
        )
    if sum(1 for p in plans if p.crashes) > 1:
        raise ChaosPlanError(
            "at most one crashing plan (coordinator-crash / journal-disk-full) "
            "per schedule"
        )
    return plans


# --------------------------------------------------------------------------- #
# The harness
# --------------------------------------------------------------------------- #


@dataclass
class _RunContext:
    coordinator: ClusterCoordinator
    rounds: int
    #: ``"memory"`` or ``"socket"``; plans word their notes by it.
    plane: str = "memory"
    journal_device: _DiskFullFile | None = None
    #: Disk-backed plumbing (``wants_store`` plans only).
    journal_path: str | None = None
    journal_writer: JournalWriter | None = None
    store: SqliteStateStore | None = None
    checkpointer: Checkpointer | None = None
    stp_outage_remaining: int = 0
    stp_drained_sends: int = 0
    #: Stale-token writes rejected with :class:`FencedError` (counted by
    #: the partition plans when their zombie write attempt dies).
    fenced_rejections: int = 0
    #: Set by a plan whose fault is armed but has not fired; a run that
    #: ends with it set proved nothing, so it cannot be transcript-equal.
    fault_missed: bool = False
    #: Optional :class:`repro.telemetry.Tracer`; one root span per
    #: round.  The tracer draws ids from its own RNG, so traced and
    #: untraced runs keep byte-identical transcripts.
    tracer: object | None = None
    notes: list = field(default_factory=list)

    @property
    def transport(self) -> TranscriptTransport:
        """The deployment's transport: fault injection + transcript."""
        return self.coordinator.transport

    def note(self, text: str) -> None:
        self.notes.append(text)


@dataclass
class _RunRecord:
    """One full run's observable outcome."""

    segments: tuple[tuple[str, ...], ...]
    granted: tuple[bool, ...]
    licenses: tuple


class _RetryingSend:
    """The run's transport as the allocator sees it: every send retried
    under :data:`SEND_POLICY` (queue-and-drain), each retry shown to the
    plans' ``on_send_retry`` first."""

    def __init__(self, ctx: _RunContext, plans) -> None:
        self._ctx = ctx
        self._plans = plans

    def send(self, message, sender: str, receiver: str):
        ctx = self._ctx

        def on_retry(_attempt, exc, _sleep_s):
            for plan in self._plans:
                plan.on_send_retry(ctx, exc, (sender, receiver))

        return run_with_policy(
            lambda: ctx.transport.send(message, sender, receiver),
            SEND_POLICY,
            rng=DeterministicRandomSource(0),
            on_retry=on_retry,
        )


@dataclass(frozen=True)
class ChaosResult:
    """The verdict of one composed chaos schedule."""

    plans: tuple[str, ...]
    seed: int
    shards: int
    rounds: int
    #: Property 1: transcript byte-equality over the required segments.
    transcript_equal: bool
    #: How many segments (enrolment + rounds) had to match exactly.
    exact_segments: int
    #: Property 2: every completed round's license verified, and its
    #: grant/deny outcome matches the control run.
    licenses_valid: bool
    #: Draws the replay served from the journal / from the fallback RNG
    #: (crash plans only; -1 when no replay happened).
    replayed_draws: int
    fallback_draws: int
    fault_stats: dict
    failovers: int
    drops_retried: int
    notes: tuple[str, ...]
    #: Stale-token writes rejected with ``FencedError`` during the run.
    fenced_rejections: int = 0
    #: Shards flagged suspect (gray failure) instead of promoted.
    suspects: int = 0
    #: Exactly-one-writer audit over the journal (+ store when present):
    #: commits whose fencing token regressed behind the shard's fence.
    #: ``-1`` means no journal was active, so there was nothing to audit.
    writer_violations: int = -1
    #: Named workload the fault schedule was composed with ("" = the
    #: legacy round-robin driver).
    workload: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.transcript_equal
            and self.licenses_valid
            and self.writer_violations <= 0
        )

    def to_dict(self) -> dict:
        return {
            "plans": list(self.plans),
            "seed": self.seed,
            "shards": self.shards,
            "rounds": self.rounds,
            "ok": self.ok,
            "transcript_equal": self.transcript_equal,
            "exact_segments": self.exact_segments,
            "licenses_valid": self.licenses_valid,
            "replayed_draws": self.replayed_draws,
            "fallback_draws": self.fallback_draws,
            "fault_stats": dict(self.fault_stats),
            "failovers": self.failovers,
            "drops_retried": self.drops_retried,
            "fenced_rejections": self.fenced_rejections,
            "suspects": self.suspects,
            "writer_violations": self.writer_violations,
            "workload": self.workload,
            "notes": list(self.notes),
        }


class ChaosHarness:
    """Builds seed-paired deployments and judges fault schedules.

    The control run is built once per harness and reused across
    schedules — every faulted run is compared against the same clean
    transcript.  ``plane="socket"`` puts every faulted run on worker
    processes over TCP; the control stays in memory.
    """

    def __init__(
        self,
        seed: int = 7,
        shards: int = 2,
        rounds: int = 2,
        key_bits: int = 256,
        scenario_seed: int = 5,
        metrics=None,
        workload: str = "",
        plane: str = "memory",
    ) -> None:
        if rounds < 1:
            raise ChaosPlanError("rounds must be positive")
        if plane not in PLANES:
            raise ChaosPlanError(
                f"unknown plane {plane!r} (known: {', '.join(PLANES)})"
            )
        self.plane = plane
        self.seed = seed
        self.shards = shards
        self.rounds = rounds
        self.key_bits = key_bits
        self.scenario_seed = scenario_seed
        #: Optional named traffic shape (``repro.sim.traffic``).  When
        #: set, round subjects and inter-round PU churn come from one
        #: compiled workload script applied identically to the control,
        #: every faulted run, and any crash replay — composing a
        #: workload must not disturb the byte-equality judgement.
        self.workload = workload
        if workload:
            resolve_workload(workload)
        self._script: tuple | None = None
        #: Optional :class:`repro.telemetry.MetricsRegistry` threaded
        #: through every deployment the harness builds (router, policy
        #: engine, transport counters) plus the harness's own
        #: ``chaos_runs_total`` / ``chaos_crashes_total``.
        self.metrics = metrics
        self._control: _RunRecord | None = None

    # -- deployment plumbing ----------------------------------------------------

    def _build(self, rng, journal=None, clock=None, store=None, plane="memory"):
        """One enrolled deployment on ``plane`` (``"socket"``: worker
        processes on TCP), over ``store`` if one is given."""
        scenario = build_scenario(ScenarioConfig(seed=self.scenario_seed))
        if plane == "socket":
            from repro.netd.plane import SocketClusterCoordinator as deployment

            wire = {"record_transcript": True}
        else:
            deployment, wire = ClusterCoordinator, {"transport": TranscriptTransport()}
        coordinator = deployment(
            scenario.environment,
            num_shards=self.shards,
            key_bits=self.key_bits,
            rng=rng,
            # Composed schedules can burn several attempts on one
            # sub-query (a failover *and* an injected drop); give the
            # router a chaos-sized budget.  Attempts don't affect the
            # transcript, so control and faulted runs stay paired.
            scatter_threads=1,
            max_attempts=4,
            journal=journal,
            clock=clock if clock is not None else (lambda: FROZEN_CLOCK),
            metrics=self.metrics,
            store=store,
            **wire,
        )
        try:
            for pu in scenario.pus:
                coordinator.enroll_pu(pu)
            for su in scenario.sus:
                coordinator.enroll_su(su)
        except BaseException:
            coordinator.close()  # worker processes must not outlive a failed build
            raise
        su_ids = tuple(su.su_id for su in scenario.sus)
        if self.workload and self._script is None:
            self._script = self._compile_workload(scenario)
        return coordinator, su_ids

    def _compile_workload(self, scenario) -> tuple:
        """Per-round ``(su_id, churn)`` script from the named workload.

        The traffic model's continuous schedule is quantised onto the
        harness's round structure: each ``su-request`` event names the
        round's subject, and every *physical* ``pu-switch`` since the
        previous request is applied (through the faulted transport) just
        before that round.  Compiled once per harness from a dedicated
        seed fork, so all runs see the same script; ``su-move`` events
        are ignored — chaos rounds have no spatial dimension.
        """
        su_ids = tuple(su.su_id for su in scenario.sus)
        pu_ids = tuple(pu.receiver_id for pu in scenario.pus)
        schedule = build_schedule(
            self.workload,
            rng=DeterministicRandomSource(self.seed).fork("chaos-workload"),
            rate_per_s=1.0,
            num_requests=self.rounds,
            num_sus=len(su_ids),
            num_pus=len(pu_ids),
            num_channels=scenario.environment.num_channels,
            # One update per round keeps composed schedules bounded; a
            # churn-storm workload saturates this cap, steady mostly
            # leaves it unused.
            max_pu_switches=self.rounds,
            pu_churn_per_hour=900.0,
            grid=scenario.grid,
        )
        script: list[tuple[str, tuple]] = []
        churn: list[tuple[str, int]] = []
        for event in schedule.events:
            if event.kind == KIND_SU_REQUEST:
                script.append((su_ids[event.index], tuple(churn)))
                churn = []
            elif event.kind == KIND_PU_SWITCH and event.physical:
                churn.append((pu_ids[event.index], event.slot))
        # Churn after the final request never precedes a round: dropped.
        return tuple(script)

    def _apply_churn(self, ctx: _RunContext, wire, churn) -> None:
        """Scripted PU switches, sent through the (possibly faulted) transport.

        Updates ride the same retrying ``wire`` as protocol messages, so
        a churn storm composed with a partition exercises the failover
        path; §VI-A virtual switches (same physical channel) produce no
        update, identically in every run.
        """
        coordinator = ctx.coordinator
        for pu_id, slot in churn:
            update = coordinator.pu_client(pu_id).switch_channel(
                slot, signal_strength_mw=1.0
            )
            if update is None:
                continue
            wire.send(update, pu_id, SDC_ENDPOINT)
            coordinator.sdc.handle_pu_update(update)

    def _execute(self, ctx: _RunContext, plans, su_ids) -> _RunRecord:
        """Enrolment already ran in ``_build``; mark it and run rounds.

        Round ``i`` is epoch ``i`` of the broker's allocator, sending
        through a retrying (queue-and-drain) transport, so every plan
        also runs the allocator's round discard and epoch commit.
        """
        for plan in plans:
            plan.arm(ctx)
        wire = _RetryingSend(ctx, plans)
        allocator = BatchAllocator.for_coordinator(ctx.coordinator, transport=wire)
        ctx.transport.mark()
        outcomes = []
        for round_index in range(ctx.rounds):
            for plan in plans:
                plan.before_round(ctx, round_index)
            if self._script:
                su_id, churn = self._script[round_index % len(self._script)]
                self._apply_churn(ctx, wire, churn)
            else:
                su_id = su_ids[round_index % len(su_ids)]
            root = (
                ctx.tracer.start_span("round", su=su_id)
                if ctx.tracer is not None
                else None
            )
            with root or nullcontext():
                request = ctx.coordinator.su_client(su_id).prepare_request()
                epoch = Epoch(round_index, 0.0, 0.0, [(su_id, request)])
                [result] = allocator.allocate(epoch, spans=[root])
            outcomes.append(result.outcome)
            ctx.transport.mark()
        for plan in plans:
            plan.finish(ctx)
        ctx.transport.clear_faults()
        return _RunRecord(
            segments=ctx.transport.segments(),
            granted=tuple(o.granted for o in outcomes),
            licenses=tuple(o.license for o in outcomes),
        )

    def control(self, tracer=None) -> _RunRecord:
        """The clean run.  Untraced controls are built once and cached;
        a traced control always runs fresh (it must populate *this*
        tracer's span tree) and seeds the cache, which is sound because
        tracing never touches the protocol RNG."""
        if self._control is not None and tracer is None:
            return self._control
        coordinator, su_ids = self._build(DeterministicRandomSource(self.seed))
        ctx = _RunContext(
            coordinator=coordinator, rounds=self.rounds, tracer=tracer
        )
        try:
            record = self._execute(ctx, [], su_ids)
        finally:
            coordinator.close()
        if self._control is None:
            self._control = record
        return record

    # -- the verdict ------------------------------------------------------------

    def run(self, plan_names, tracer=None) -> ChaosResult:
        """Run one composed fault schedule and judge it against control."""
        plans = _resolve_plans(plan_names)
        control = self.control()
        if self.metrics is not None:
            self.metrics.counter(
                "chaos_runs_total", plan="+".join(sorted(plan_names))
            ).inc()
        wants_journal = any(p.wants_journal for p in plans)
        wants_store = any(p.wants_store for p in plans)

        device: _DiskFullFile | None = None
        writer: JournalWriter | None = None
        journal: EpochJournal | None = None
        store: SqliteStateStore | None = None
        checkpointer: Checkpointer | None = None
        journal_path: str | None = None
        store_dir: str | None = None
        if wants_store:
            # Real disk: a SQLite store in a throwaway dir and a
            # path-backed journal (checkpoint compaction renames files).
            store_dir = tempfile.mkdtemp(prefix="repro-chaos-store-")
            store = SqliteStateStore(os.path.join(store_dir, "store.sqlite"))
            journal_path = os.path.join(store_dir, "journal.wal")
            writer = JournalWriter(journal_path, fsync_every=8)
            journal = EpochJournal(writer)
            checkpointer = Checkpointer(store, metrics=self.metrics)
        elif wants_journal:
            device = _DiskFullFile()
            writer = JournalWriter(fileobj=device, fsync_every=8)
            journal = EpochJournal(writer)

        try:
            coordinator, su_ids = self._build(
                DeterministicRandomSource(self.seed),
                journal=journal,
                store=store,
                plane=self.plane,
            )
            ctx = _RunContext(
                coordinator=coordinator,
                rounds=self.rounds,
                plane=self.plane,
                journal_device=device,
                journal_path=journal_path,
                journal_writer=writer,
                store=store,
                checkpointer=checkpointer,
                tracer=tracer,
            )
            crashed: Exception | None = None
            record: _RunRecord | None = None
            try:
                record = self._execute(ctx, plans, su_ids)
            except (_InjectedCrash, JournalDiskFullError) as exc:
                crashed = exc
                ctx.note(f"crash: {type(exc).__name__}: {exc}")
                if self.metrics is not None:
                    self.metrics.counter(
                        "chaos_crashes_total", kind=type(exc).__name__
                    ).inc()
            finally:
                failovers = ctx.coordinator.router.stats.failovers
                drops_retried = ctx.coordinator.router.stats.drops_retried
                suspects = ctx.coordinator.router.stats.suspects
                fault_stats = dict(ctx.transport.fault_stats)
                coordinator.close()

            writer_violations = -1
            if writer is not None:
                # Exactly-one-writer audit: every journaled commit must
                # carry a token no older than its shard's fence, and the
                # store's persisted lease must not lag the journal's.
                try:
                    writer.barrier()
                except JournalDiskFullError:
                    pass  # the full-device plan: audit the written prefix
                journal_result = read_journal(
                    journal_path if journal_path is not None else device.getvalue()
                )
                violations = check_exactly_one_writer(journal_result, store=store)
                writer_violations = len(violations)
                for violation in violations:
                    ctx.note(f"writer violation: {violation}")

            replayed_draws = -1
            fallback_draws = -1
            if crashed is not None:
                # Recovery: replay the journal prefix through a fresh
                # deployment.  The fallback RNG is seeded differently, so
                # a byte-equal transcript proves the bytes came from disk.
                record, replayed_draws, fallback_draws = self._replay(
                    journal_result, ctx, su_ids
                )
                exact_segments = (
                    len(control.segments)
                    if isinstance(crashed, _InjectedCrash)
                    # Disk-full loses the interrupted round's draws (they
                    # never crossed a barrier): every *completed* segment
                    # must match, the final round re-runs on fresh entropy.
                    else len(control.segments) - 1
                )
            else:
                exact_segments = len(control.segments)

            assert record is not None
            transcript_equal = not ctx.fault_missed and (
                record.segments[:exact_segments]
                == control.segments[:exact_segments]
            )
            licenses_valid = record.granted == control.granted and all(
                lic is not None for lic in record.licenses
            )
            return ChaosResult(
                plans=tuple(p.name for p in plans),
                seed=self.seed,
                shards=self.shards,
                rounds=self.rounds,
                transcript_equal=transcript_equal,
                exact_segments=exact_segments,
                licenses_valid=licenses_valid,
                replayed_draws=replayed_draws,
                fallback_draws=fallback_draws,
                fault_stats=fault_stats,
                failovers=failovers,
                drops_retried=drops_retried,
                notes=tuple(ctx.notes),
                fenced_rejections=ctx.fenced_rejections,
                suspects=suspects,
                writer_violations=writer_violations,
                workload=self.workload,
            )
        finally:
            # Flush-on-exit, crash or not: an abandoned JournalWriter
            # strands up to fsync_every-1 buffered records.
            if writer is not None:
                writer.close()
            if store is not None:
                store.close()
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)

    def _replay(self, result, ctx: _RunContext, su_ids):
        """Rebuild from the read journal and re-run the whole script, clean."""
        summary = summarize(result)
        ctx.note(
            f"journal: {summary.draws} draws, "
            f"{len(summary.phase2_rounds)} phase-2 barriers, "
            f"torn_tail={summary.torn_tail}"
        )
        rng, clock = replay_sources(
            result, self.seed, fallback_clock=lambda: FROZEN_CLOCK
        )
        coordinator, _ = self._build(rng, clock=clock, plane=self.plane)
        replay_ctx = _RunContext(
            coordinator=coordinator, rounds=self.rounds, notes=ctx.notes
        )
        try:
            record = self._execute(replay_ctx, [], su_ids)
        finally:
            coordinator.close()
        ctx.note(
            f"replay: {rng.replayed_draws} draws from journal, "
            f"{rng.fallback_draws} from fallback"
        )
        return record, rng.replayed_draws, rng.fallback_draws
