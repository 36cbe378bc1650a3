"""Epoch leases and fencing tokens for the sharded SDC plane.

PISA's transcript determinism assumes **exactly one writer per shard
per epoch**.  Heartbeats alone cannot guarantee that: an asymmetric
partition (router→shard cut while shard→store stays up) or a merely
slow primary looks dead to the router but keeps absorbing PU updates —
and once a successor is promoted, two replicas diverge silently.

The fix is the classic lease/fence protocol:

* Every shard has a **monotonically increasing fencing token**, issued
  by a single :class:`LeaseAuthority` (the coordinator in-process; the
  authority server on the socket plane).
* The router stamps every sub-query and write with the token it holds.
* A shard remembers the **highest token it has ever seen** and rejects
  anything lower with :class:`~repro.errors.FencedError` — a deposed
  primary's writes die at the shard boundary, not in a comment.
* Promotion is **fence-then-promote**: bump + persist the token,
  install it on every replica that will listen (including the zombie,
  if reachable), and only then route traffic to the successor.

Tokens are durable.  :meth:`LeaseAuthority.bump` persists through the
:class:`~repro.store.base.StateStore` checkpoint table (scope
``fence/<shard_id>``) *before* the new lease is used, so a SIGKILL and
cold start can never resurrect an old token; it also journals a
barriered ``fence`` record so the exactly-one-writer audit
(:func:`repro.resilience.recovery.check_exactly_one_writer`) can
attribute every commit to the lease that performed it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "FENCE_SCOPE_PREFIX",
    "FenceLease",
    "LeaseAuthority",
    "fence_scope",
]

#: Store checkpoint-scope prefix under which leases persist.
FENCE_SCOPE_PREFIX = "fence/"

#: ``promotions_total{reason=}`` label values pre-registered at zero.
PROMOTION_REASONS = ("failover", "suspect", "cold-start", "manual")


def fence_scope(shard_id: str) -> str:
    """The store checkpoint scope holding one shard's current token."""
    return FENCE_SCOPE_PREFIX + shard_id


@dataclass(frozen=True)
class FenceLease:
    """One issued lease: the token is the shard's write credential."""

    shard_id: str
    token: int
    reason: str


class LeaseAuthority:
    """Issues strictly increasing fencing tokens, durably.

    One instance per deployment — the single point that decides who the
    legitimate writer for a shard is.  ``store`` makes tokens survive
    kill9-and-coldstart; ``journal`` (optional) leaves a barriered
    provenance trail; ``metrics`` (optional) pre-registers the fencing
    families at zero so a scrape before the first promotion still shows
    them.
    """

    def __init__(self, store, journal=None, metrics=None) -> None:
        self._store = store
        self._journal = journal
        self._metrics = metrics
        self._lock = threading.Lock()
        self._tokens: dict[str, int] = {}
        if metrics is not None:
            for reason in PROMOTION_REASONS:
                metrics.counter("promotions_total", reason=reason)

    # -- bookkeeping -------------------------------------------------------------

    def register(self, shard_id: str) -> int:
        """Adopt a shard, recovering its persisted token if one exists.

        Returns the current token (0 for a shard never fenced).  Safe to
        call repeatedly — re-registration after a cold start re-reads the
        store, which is exactly how a token outlives the process.
        """
        with self._lock:
            token = max(self._tokens.get(shard_id, 0), self._load(shard_id))
            self._tokens[shard_id] = token
            self._publish(shard_id, token)
            return token

    def token(self, shard_id: str) -> int:
        """The shard's current token (0 if never fenced)."""
        with self._lock:
            return self._tokens.get(shard_id, 0)

    def shard_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tokens))

    # -- the one mutation --------------------------------------------------------

    def bump(self, shard_id: str, reason: str) -> FenceLease:
        """Issue the next token for ``shard_id``: durably, then in memory.

        Persistence order is the protocol: store first (the token must
        survive a crash *before* anyone acts on it), then the barriered
        journal record, then the in-memory map and gauges.  A crash
        between store-write and use wastes a token number — monotonicity
        only needs the counter never to go backwards, not to be dense.
        """
        with self._lock:
            token = max(self._tokens.get(shard_id, 0), self._load(shard_id)) + 1
            self._store.put_checkpoint(fence_scope(shard_id), token.to_bytes(8, "big"))
            if self._journal is not None:
                self._journal.fence(shard_id, token, reason)
            self._tokens[shard_id] = token
            self._publish(shard_id, token)
            if self._metrics is not None:
                self._metrics.counter("promotions_total", reason=reason).inc()
            return FenceLease(shard_id=shard_id, token=token, reason=reason)

    def note_rejection(self, shard_id: str) -> None:
        """Count one stale-token rejection into ``fenced_requests_total``.

        The shards raise :class:`~repro.errors.FencedError` themselves
        (they hold no registry); whoever observes the rejection — the
        router's data path, the chaos drills — reports it here.
        """
        if self._metrics is not None:
            self._metrics.counter("fenced_requests_total", shard=shard_id).inc()

    # -- internals ---------------------------------------------------------------

    def _load(self, shard_id: str) -> int:
        blob = self._store.get_checkpoint(fence_scope(shard_id))
        return int.from_bytes(blob, "big") if blob else 0

    def _publish(self, shard_id: str, token: int) -> None:
        if self._metrics is None:
            return
        self._metrics.gauge("fencing_tokens_current", shard=shard_id).set(token)
        # Touch the rejection counter so the family exists before the
        # first stale write — the PR 5 scrape-before-first-event rule.
        self._metrics.counter("fenced_requests_total", shard=shard_id)
