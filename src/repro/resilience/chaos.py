"""Deterministic chaos harness for the sharded PISA deployment.

The harness runs the *same seeded deployment twice* — once clean
(control), once with a composed schedule of injected faults — and
asserts the property the paper's protocol depends on:

    **the protocol transcript is byte-identical and every issued
    license verifies**, no matter which components were killed,
    which wires dropped/delayed/duplicated messages, or
    where the journal device failed.

Faults are *fault plans*: named, composable units (``kill-shard``,
``drop-links``, ``coordinator-crash``, ...) that arm transport faults
(:meth:`repro.net.transport.InMemoryTransport.inject_faults`), kill
processes, cut the SDC↔STP wire, or fill the journal device at a
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

Every plan is one declared row of :data:`PLANS`: the rounds it strikes
in (:data:`ROUNDS`: every round, the second, the last, or at arm), the
point within the round (:data:`POINTS`), its target, whether it crashes
the coordinator, compacts the journal or kills its target, and the
evidence in the verdict that it fired.  The harness owns every seam a
plan strikes through — before each round, the phase-1 scatter, the
router's recovery, a retried send, the front's phase-2 ``ΣQ̃`` — and
calls a row's hooks only in its rounds.  Legality is computed from the
rows before anything is built (:func:`resolve_plans`), and
:attr:`ChaosResult.ok` holds only when every armed plan fired.

Every faulted run stands on the deployment layout: a SQLite store and a
path-backed journal in one temp dir (``DIR/state.sqlite``,
``DIR/epochs.journal``), so the exactly-one-writer audit reads a journal
on every run.  ``plane="socket"`` runs the same rows on worker
processes over TCP (:class:`repro.netd.plane.SocketClusterCoordinator`,
which takes the journal and the store as the in-memory coordinator
does), where a kill is a real ``SIGKILL`` and a stale commit a
wire-typed ``FencedError``.  The control is always the cached in-memory
run, so a socket pass proves cross-plane determinism too.

Two plans crash the coordinator.  A crash loses what a killed process
loses: the journal file is cut back to its last fsync
(:meth:`~repro.resilience.journal.JournalWriter.simulate_crash`), and
the deployment is **rebuilt and replayed** from what is left, with a
*differently seeded* fallback RNG:

* ``coordinator-crash`` — SIGKILL-equivalent mid-phase-2 (after the
  phase-2 randomness barrier, before the license leaves).  The replay
  must match the control transcript byte for byte with zero fallback
  draws.
* ``journal-disk-full`` — the journal device fills mid-round.  The
  typed :class:`~repro.errors.JournalDiskFullError` must surface, and
  replaying the durable prefix must reproduce every *completed* round
  byte-identically (the interrupted round re-runs on fresh randomness —
  its draws never left the process, so no external bytes constrain it
  — and must still yield a verifying license).
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
import time
from collections.abc import Callable, Mapping
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

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
    "FaultPlan",
    "PLANES",
    "PLANS",
    "PLAN_NAMES",
    "POINTS",
    "ROUNDS",
    "fingerprint_message",
    "resolve_plans",
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

#: When a plan strikes: the rounds each rule picks out of a run's.
ROUNDS: dict[str, Callable[[int], tuple[int, ...]]] = {
    "every": lambda rounds: tuple(range(rounds)),
    "arm": lambda rounds: (0,),
    "second": lambda rounds: (min(1, rounds - 1),),
    "last": lambda rounds: (rounds - 1,),
}

#: Where in its round a plan strikes, in the order a round passes them:
#: before the round, among the phase-1 draws, in the phase-1 scatter, in
#: the router's recovery of a shard, on the STP leg, in phase 2.
POINTS = ("before", "draws", "scatter", "recovery", "stp", "phase2")


class _InjectedCrash(Exception):
    """Stand-in for SIGKILL: unwinds the harness, never handled below it."""


class _FullDevice:
    """The journal file's handle on a device with ``room`` bytes left.

    A write past the room lands *partially* (like a real short write at
    the end of a device) and raises ``ENOSPC``; everything else is the
    wrapped handle's.
    """

    def __init__(self, fh, room: int) -> None:
        self._fh = fh
        self._limit = fh.tell() + room

    def write(self, data):
        room = self._limit - self._fh.tell()
        if len(data) > room:
            if room > 0:
                self._fh.write(data[:room])
            raise OSError(errno.ENOSPC, "chaos: journal device full")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


# --------------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FaultPlan:
    """One fault as a declared row."""

    name: str
    #: Key of :data:`ROUNDS`: the rounds the plan's hooks run in.
    rounds: str
    #: Member of :data:`POINTS`: where in the round the fault lands.
    point: str
    #: What it hits: the ``first`` / ``last`` shard, the shard the
    #: scatter ``addressed`` first, every router→shard ``link``, the
    #: ``sdc->stp`` wire, the ``coordinator`` or the ``journal``.
    target: str
    #: Seam → hook: ``before`` (each round), ``scatter`` (the round's
    #: sub-queries), ``recovery`` (the recovered shard id), ``retry``
    #: (the error and the link of a send about to be retried),
    #: ``phase2`` (after ``ΣQ̃``) and ``finish`` (after the last round).
    #: Every hook takes the run context first.
    hooks: Mapping[str, Callable]
    #: The evidence in the verdict that the fault fired.
    fired: Callable[["ChaosResult"], bool]
    #: Ends the faulted run; the journal is replayed from its start.
    crashes: bool = False
    #: Checkpoints the journal: what it held before is gone from it.
    compacts: bool = False
    #: Kills its target's primary.
    kills: bool = False
    #: Deposes its target's primary and leaves it alive from before its
    #: round until its point.
    zombie: bool = False

    def at(self, rounds: int) -> tuple[int, int]:
        """``(round, point)`` of the plan's first strike in a run."""
        return ROUNDS[self.rounds](rounds)[0], POINTS.index(self.point)


def _noted(text: str) -> Callable[["ChaosResult"], bool]:
    return lambda result: any(text in note for note in result.notes)


def _kill_addressed(ctx, requests) -> None:
    victim = ctx.memo["kill-shard"] = next(iter(requests))
    ctx.coordinator.kill_shard(victim)
    ctx.note(f"killed {victim} in round {ctx.round}'s phase-1 scatter")


def _note_restarts(ctx) -> None:
    victim = ctx.memo.get("kill-shard")
    if victim is not None and ctx.plane == "socket":
        restarts = ctx.coordinator.netd.supervisor.restarts(victim)
        ctx.note(f"restarts({victim})={restarts}")


def _on_every_link(**faults) -> Callable:
    def arm(ctx) -> None:
        for shard_id in ctx.coordinator.router.shard_ids:
            ctx.transport.inject_faults("router", shard_id, **faults)

    return arm


#: Retries the SDC→STP wire stays cut for (queue-and-drain: the held
#: bytes are re-sent unchanged, so the transcript is too).
OUTAGE_RETRIES = 2


def _cut_stp(ctx) -> None:
    ctx.transport.fail_link(SDC_ENDPOINT, STP_ENDPOINT)
    ctx.memo["stp-outage"] = OUTAGE_RETRIES
    ctx.note(f"cut sdc->stp before round {ctx.round}")


def _drain_stp(ctx, exc, link) -> None:
    if link != (SDC_ENDPOINT, STP_ENDPOINT) or not isinstance(exc, LinkDownError):
        return
    ctx.memo["stp-outage"] -= 1
    if ctx.memo["stp-outage"] <= 0:
        ctx.transport.restore_link(SDC_ENDPOINT, STP_ENDPOINT)
        ctx.note("stp outage drained; link restored")


def _note_crash_armed(ctx) -> None:
    ctx.note(f"armed coordinator kill in round {ctx.round} phase 2")


def _crash(ctx) -> None:
    raise _InjectedCrash(f"coordinator killed mid-phase-2 of round {ctx.round}")


#: Journal bytes ``journal-disk-full`` leaves room for: the device fills
#: among the round's phase-1 draws.
HEADROOM_BYTES = 2048


def _fill_journal(ctx) -> None:
    ctx.writer._fh = _FullDevice(ctx.writer._fh, HEADROOM_BYTES)
    ctx.note(f"journal device limited before round {ctx.round}")


def _checkpoint(ctx) -> None:
    # Epoch commit → per-shard snapshots land in the durable store;
    # checkpoint → the journal forgets everything the store holds.
    ctx.coordinator.sdc.commit_epoch(ctx.round)
    stats = ctx.checkpointer.checkpoint(ctx.writer)
    ctx.note(
        f"checkpoint {stats.checkpoint_id}: "
        f"{stats.records_compacted} records compacted, journal "
        f"{stats.journal_bytes_before}→{stats.journal_bytes_after} B"
    )
    ctx.note(f"armed kill9+coldstart in round {ctx.round} phase 1")


def _kill9_then_coldstart(ctx, _requests) -> None:
    coordinator = ctx.coordinator
    victim = coordinator.router.shard_ids[0]
    # SIGKILL semantics: no flush, no goodbye snapshot.  Recovery sees
    # only the disk.
    coordinator.kill_shard(victim)
    recovered = recover(ctx.store, ctx.writer.path)
    applied = coordinator.cold_start_shard(victim, recovered.tail)
    ctx.note(
        f"killed {victim}; cold-started from "
        f"store + {len(recovered.tail.records)}-record tail "
        f"({applied} applied)"
    )


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


def _cut_router_link(ctx) -> None:
    router = ctx.coordinator.router
    victim = router.shard_ids[0]
    replica_set = router.replica_set(victim)
    # The incumbent holds a real lease before the cut; an unfenced
    # (token-0) writer is exempt from fencing by design, which would
    # let the zombie's later attempt slip through unjudged.
    incumbent = ctx.coordinator.fencing.bump(victim, "manual")
    replica_set.install_fence(incumbent.token)
    ctx.memo["asymmetric-partition"] = (victim, replica_set.primary, incumbent.token)
    ctx.transport.fail_link("router", victim)
    ctx.note(f"cut router->{victim} (shard alive) before round {ctx.round}")


def _heal_then_zombie_write(ctx, shard_id) -> None:
    partition = ctx.memo.get("asymmetric-partition")
    if partition is None or partition[0] != shard_id:
        return
    victim, zombie, stale = ctx.memo.pop("asymmetric-partition")
    ctx.transport.restore_link("router", victim)
    ctx.note(f"partition healed after fence+promote of {victim}")
    # The old primary comes back from the partition and tries to finish
    # the write it was holding — with its dead lease.
    _stale_commit(
        ctx, victim, zombie, ctx.round, stale,
        rejected="zombie write rejected",
        landed=f"zombie write on {victim} was accepted",
    )


def _promote_while_alive(ctx) -> None:
    coordinator = ctx.coordinator
    victim = coordinator.router.shard_ids[0]
    replica_set = coordinator.router.replica_set(victim)
    # Give the incumbent a real lease and let it commit under it — the
    # journal now has a writer record to audit against.
    incumbent = coordinator.fencing.bump(victim, "manual")
    replica_set.install_fence(incumbent.token)
    coordinator.sdc.commit_epoch(ctx.round)
    zombie = replica_set.primary
    # Depose it while it is alive and serving: bump, persist, install on
    # every replica (the zombie included), only then promote.
    successor = coordinator.fencing.bump(victim, "failover")
    replica_set.install_fence(successor.token)
    replica_set.promote()
    ctx.note(
        f"promoted {victim} while old primary alive "
        f"(lease {incumbent.token}->{successor.token})"
    )
    # The successor commits under its own lease when the round's epoch
    # ends; the audit must see writer tokens that never regress behind
    # the fence.
    _stale_commit(
        ctx, victim, zombie, ctx.round + 1, incumbent.token,
        rejected="old primary's post-fence write rejected",
        landed=f"old primary of {victim} committed",
    )


#: How far ``clock-skew`` backdates a healthy shard's heartbeat.
SKEW_S = 60.0


def _skew_heartbeat(ctx) -> None:
    router = ctx.coordinator.router
    victim = router.shard_ids[-1]
    replica_set = router.replica_set(victim)
    replica_set.record_heartbeat(now=time.monotonic() - SKEW_S)
    promoted = router.check_liveness()
    ctx.note(
        f"skewed {victim} heartbeat {SKEW_S:.0f}s into the past; "
        f"liveness promoted {list(promoted) or 'nothing'}, "
        f"suspect={replica_set.suspect}"
    )


#: ``gray-slow-shard``'s slowdown: below heartbeat death, above the RTT
#: quantile.
SLOW_S = 0.4


def _slow_first_shard(ctx) -> None:
    victim = ctx.coordinator.router.shard_ids[0]
    ctx.coordinator.slow_shard(victim, SLOW_S)
    ctx.note(f"armed {SLOW_S * 1000:.0f} ms gray slowdown on {victim}")


def _note_suspects(ctx) -> None:
    stats = ctx.coordinator.router.stats
    if stats.suspects:
        ctx.note(
            f"router flagged {stats.suspects} suspect(s), "
            f"promoted {stats.failovers or 'none'}"
        )


#: The plan table, in the order ``--plan all`` runs it.  See
#: docs/resilience.md for what each fault models.
PLANS: tuple[FaultPlan, ...] = (
    # The router must fail over (on sockets: restart and re-bootstrap the
    # SIGKILLed worker) and re-send the identical sub-query bytes, since
    # phase randomness was drawn before the scatter.
    FaultPlan(
        "kill-shard", "second", "scatter", "addressed", kills=True,
        hooks={"scatter": _kill_addressed, "finish": _note_restarts},
        fired=lambda r: r.failovers >= 1,
    ),
    FaultPlan(
        "drop-links", "every", "scatter", "link",
        hooks={"before": _on_every_link(drop=1)},
        fired=lambda r: r.fault_stats["dropped"] > 0,
    ),
    FaultPlan(
        "delay-links", "every", "scatter", "link",
        hooks={"before": _on_every_link(delay_s=0.005, delay_count=2)},
        fired=lambda r: r.fault_stats["delayed"] > 0,
    ),
    FaultPlan(
        "duplicate-links", "every", "scatter", "link",
        hooks={"before": _on_every_link(duplicate=1)},
        fired=lambda r: r.fault_stats["duplicated"] > 0,
    ),
    FaultPlan(
        "stp-outage", "second", "stp", "sdc->stp",
        hooks={"before": _cut_stp, "retry": _drain_stp},
        fired=_noted("stp outage drained"),
    ),
    # Inside the front's phase 2 — after the phase-2 randomness barrier
    # and the ΣQ̃ product, before the license leaves — exactly the
    # window the write-ahead discipline exists for.
    FaultPlan(
        "coordinator-crash", "last", "phase2", "coordinator", crashes=True,
        hooks={"before": _note_crash_armed, "phase2": _crash},
        fired=lambda r: r.replayed_draws > 0,
    ),
    FaultPlan(
        "journal-disk-full", "last", "draws", "journal", crashes=True,
        hooks={"before": _fill_journal},
        fired=lambda r: r.fallback_draws > 0,
    ),
    # The disaster drill for the durable store: the shard is rebuilt
    # purely from SQLite plus the journal tail, reading nothing of the
    # dead one, so transcript equality over every segment proves the
    # disk state byte-exact.
    FaultPlan(
        "kill9-then-coldstart", "last", "scatter", "first",
        kills=True, compacts=True,
        hooks={"before": _checkpoint, "scatter": _kill9_then_coldstart},
        fired=_noted("cold-started from"),
    ),
    # The router cannot reach a healthy primary; failover must fence
    # before it promotes, so the zombie's write after the heal dies.
    FaultPlan(
        "asymmetric-partition", "second", "recovery", "first", zombie=True,
        hooks={"before": _cut_router_link, "recovery": _heal_then_zombie_write},
        fired=_noted("zombie write rejected"),
    ),
    # The authority deposes a healthy primary, which at once tries to
    # commit under the lease it still holds.
    FaultPlan(
        "split-brain-promote", "last", "before", "first", zombie=True,
        hooks={"before": _promote_while_alive},
        fired=_noted("post-fence write rejected"),
    ),
    # A stale heartbeat from a live primary is suspect, never promoted.
    FaultPlan(
        "clock-skew", "second", "before", "last",
        hooks={"before": _skew_heartbeat},
        fired=lambda r: r.suspects >= 1,
    ),
    # The shard answers everything, slowly: the RTT quantile must flag
    # it as suspect, with zero promotions burned.
    FaultPlan(
        "gray-slow-shard", "arm", "scatter", "first",
        hooks={"before": _slow_first_shard, "finish": _note_suspects},
        fired=lambda r: r.suspects >= 1,
    ),
)

#: Every plan, in the order ``--plan all`` runs them.
PLAN_NAMES: tuple[str, ...] = tuple(plan.name for plan in PLANS)
_PLANS = {plan.name: plan for plan in PLANS}
#: Where a faulted run can stand: in-process, or worker processes on TCP.
PLANES = ("memory", "socket")


def resolve_plans(names, rounds: int) -> tuple[FaultPlan, ...]:
    """The rows of a schedule of ``rounds`` rounds, if it is legal.

    Refused: an unknown or empty schedule; two crashing plans; a crash
    at or before another plan's point (that plan would never fire); a
    compaction before a crash (the replay reads the journal from its
    start); a kill on the shard another plan keeps a live zombie on;
    two kills of one shard at one point (the second masks the first).
    """
    plans = []
    for name in names:
        plan = _PLANS.get(name)
        if plan is None:
            raise ChaosPlanError(
                f"unknown fault plan {name!r} (known: {', '.join(_PLANS)})"
            )
        plans.append(plan)
    if not plans:
        raise ChaosPlanError("a chaos schedule needs at least one fault plan")
    crashes = [plan for plan in plans if plan.crashes]
    if len(crashes) > 1:
        raise ChaosPlanError(
            f"at most one crashing plan per schedule, not "
            f"{' and '.join(plan.name for plan in crashes)}"
        )
    for crash in crashes:
        for other in plans:
            if other is crash:
                continue
            if other.at(rounds) >= crash.at(rounds):
                raise ChaosPlanError(
                    f"{crash.name} crashes before {other.name} strikes "
                    f"in a {rounds}-round run"
                )
            if other.compacts:
                raise ChaosPlanError(
                    f"{other.name} compacts the journal {crash.name}'s "
                    f"replay reads from its start"
                )
    for kill in plans:
        for other in plans:
            # ``addressed`` is known only in the scatter: it may be any shard.
            same_shard = kill.target == other.target or "addressed" in (
                kill.target,
                other.target,
            )
            if not kill.kills or other is kill or not same_shard:
                continue
            if other.kills and other.at(rounds) == kill.at(rounds):
                raise ChaosPlanError(
                    f"{kill.name} and {other.name} kill one shard at one point"
                )
            if other.zombie:
                zombie_round, zombie_point = other.at(rounds)
                if (zombie_round, 0) <= kill.at(rounds) <= (zombie_round, zombie_point):
                    raise ChaosPlanError(
                        f"{kill.name} kills the shard {other.name} keeps a "
                        f"live zombie on"
                    )
    return tuple(plans)


# --------------------------------------------------------------------------- #
# The harness
# --------------------------------------------------------------------------- #


@dataclass
class _RunContext:
    coordinator: ClusterCoordinator
    rounds: int
    #: The faulted run's rows; empty for the control and a replay.
    plans: tuple[FaultPlan, ...] = ()
    #: ``"memory"`` or ``"socket"``; plans word their notes by it.
    plane: str = "memory"
    #: The deployment's journal writer, store and checkpointer.
    writer: JournalWriter | None = None
    store: SqliteStateStore | None = None
    checkpointer: Checkpointer | None = None
    #: The round being run.
    round: int = 0
    #: Stale-token writes rejected with :class:`FencedError` (counted by
    #: the partition plans when their zombie write attempt dies).
    fenced_rejections: int = 0
    #: Per-plan state a plan's later hooks read, keyed by plan name.
    memo: dict = field(default_factory=dict)
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

    def strike(self, seam: str, *args) -> None:
        """Run every plan's ``seam`` hook — ``finish`` once, the others
        in the plan's rounds only."""
        for plan in self.plans:
            hook = plan.hooks.get(seam)
            if hook is not None and (
                seam == "finish" or self.round in ROUNDS[plan.rounds](self.rounds)
            ):
                hook(self, *args)


def _install_seams(ctx: _RunContext) -> None:
    """Route the scatter, the router's recovery and the front's ``ΣQ̃``
    through the plans' hooks."""
    router, front = ctx.coordinator.router, ctx.coordinator.sdc
    scatter, recover_shard, q_sum = router.scatter_phase1, router._recover, front._q_sum

    def strike_then_scatter(requests, parent=None):
        # The round's phase-1 randomness is drawn and behind its barrier.
        ctx.strike("scatter", requests)
        return scatter(requests, parent=parent)

    def recover_then_strike(shard_id, reason="failover"):
        recover_shard(shard_id, reason=reason)
        ctx.strike("recovery", shard_id)

    def q_sum_then_strike(pending, response):
        total = q_sum(pending, response)
        ctx.strike("phase2")
        return total

    router.scatter_phase1 = strike_then_scatter
    router._recover = recover_then_strike
    front._q_sum = q_sum_then_strike


@dataclass
class _RunRecord:
    """One full run's observable outcome."""

    segments: tuple[tuple[str, ...], ...]
    granted: tuple[bool, ...]
    licenses: tuple


class _RetryingSend:
    """The run's transport as the allocator sees it: every send retried
    under :data:`SEND_POLICY` (queue-and-drain), each retry shown to the
    plans' ``retry`` hooks first."""

    def __init__(self, ctx: _RunContext) -> None:
        self._ctx = ctx

    def send(self, message, sender: str, receiver: str):
        ctx = self._ctx
        return run_with_policy(
            lambda: ctx.transport.send(message, sender, receiver),
            SEND_POLICY,
            rng=DeterministicRandomSource(0),
            on_retry=lambda _attempt, exc, _sleep_s: ctx.strike(
                "retry", exc, (sender, receiver)
            ),
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
    #: Exactly-one-writer audit over the journal and the store: commits
    #: whose fencing token regressed behind the shard's fence.
    writer_violations: int = 0
    #: Named workload the fault schedule was composed with ("" = the
    #: legacy round-robin driver).
    workload: str = ""

    @property
    def unfired(self) -> tuple[str, ...]:
        """Armed plans whose evidence is missing from the verdict."""
        return tuple(name for name in self.plans if not _PLANS[name].fired(self))

    @property
    def ok(self) -> bool:
        return (
            self.transcript_equal
            and self.licenses_valid
            and self.writer_violations == 0
            and not self.unfired
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok, "unfired": list(self.unfired)}


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

    def _execute(self, ctx: _RunContext, su_ids) -> _RunRecord:
        """Enrolment already ran in ``_build``; mark it and run rounds.

        Round ``i`` is epoch ``i`` of the broker's allocator, sending
        through a retrying (queue-and-drain) transport, so every plan
        also runs the allocator's round discard and epoch commit.
        """
        wire = _RetryingSend(ctx)
        allocator = BatchAllocator.for_coordinator(ctx.coordinator, transport=wire)
        if ctx.plans:
            _install_seams(ctx)
        ctx.transport.mark()
        outcomes = []
        for round_index in range(ctx.rounds):
            ctx.round = round_index
            ctx.strike("before")
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
        ctx.strike("finish")
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
            record = self._execute(ctx, su_ids)
        finally:
            coordinator.close()
        if self._control is None:
            self._control = record
        return record

    # -- the verdict ------------------------------------------------------------

    def run(self, plan_names, tracer=None) -> ChaosResult:
        """Run one composed fault schedule and judge it against control."""
        plans = resolve_plans(plan_names, self.rounds)
        control = self.control()
        if self.metrics is not None:
            self.metrics.counter(
                "chaos_runs_total", plan="+".join(sorted(plan_names))
            ).inc()
        # The deployment layout: one store and one journal in one dir.
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
        store = SqliteStateStore(os.path.join(workdir, "state.sqlite"))
        writer = JournalWriter(os.path.join(workdir, "epochs.journal"), fsync_every=8)
        try:
            coordinator, su_ids = self._build(
                DeterministicRandomSource(self.seed),
                journal=EpochJournal(writer),
                store=store,
                plane=self.plane,
            )
            ctx = _RunContext(
                coordinator=coordinator,
                rounds=self.rounds,
                plans=plans,
                plane=self.plane,
                writer=writer,
                store=store,
                checkpointer=Checkpointer(store, metrics=self.metrics),
                tracer=tracer,
            )
            crashed: Exception | None = None
            record: _RunRecord | None = None
            try:
                record = self._execute(ctx, su_ids)
            except (_InjectedCrash, JournalDiskFullError) as exc:
                crashed = exc
                ctx.note(f"crash: {type(exc).__name__}: {exc}")
                if self.metrics is not None:
                    self.metrics.counter(
                        "chaos_crashes_total", kind=type(exc).__name__
                    ).inc()
            finally:
                stats = coordinator.router.stats
                failovers = stats.failovers
                drops_retried = stats.drops_retried
                suspects = stats.suspects
                fault_stats = dict(ctx.transport.fault_stats)
                coordinator.close()

            # What a restarting process finds on disk: a crash loses
            # every record since the last fsync.
            if crashed is None:
                writer.close()
            else:
                writer.simulate_crash()
            journal = read_journal(writer.path)
            # Exactly-one-writer audit: every journaled commit must carry
            # a token no older than its shard's fence, and the store's
            # persisted lease must not lag the journal's.
            violations = check_exactly_one_writer(journal, store=store)
            for violation in violations:
                ctx.note(f"writer violation: {violation}")

            replayed_draws = fallback_draws = -1
            exact_segments = len(control.segments)
            if crashed is not None:
                # Recovery: replay the journal through a fresh
                # deployment.  The fallback RNG is seeded differently, so
                # a byte-equal transcript proves the bytes came from disk.
                record, replayed_draws, fallback_draws = self._replay(
                    journal, ctx, su_ids
                )
                [crash] = [plan for plan in plans if plan.crashes]
                # Enrolment and the rounds before the crash must match;
                # the crashed round too unless it died before its
                # phase-2 barrier, when its draws never left the process
                # and it re-runs on fresh entropy.
                survived = POINTS.index(crash.point) >= POINTS.index("phase2")
                exact_segments = 1 + ctx.round + survived

            transcript_equal = (
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
                writer_violations=len(violations),
                workload=self.workload,
            )
        finally:
            writer.close()
            store.close()
            shutil.rmtree(workdir, ignore_errors=True)

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
            record = self._execute(replay_ctx, su_ids)
        finally:
            coordinator.close()
        ctx.note(
            f"replay: {rng.replayed_draws} draws from journal, "
            f"{rng.fallback_draws} from fallback"
        )
        return record, rng.replayed_draws, rng.fallback_draws
