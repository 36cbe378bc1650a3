"""CBRS tiered-access scenario: incumbent / PAL / GAA over WATCH budgets.

The paper evaluates PISA on a UHF TV-whitespace deployment where every
secondary user is equal.  The 3.5 GHz CBRS band (TrustSAS, arXiv
1907.03136) layers a three-tier priority model on the same
database-driven sharing idea:

* **incumbents** (federal radar, FSS) must never see interference —
  they map onto PISA's PUs: their presence shapes the WATCH
  interference budget, and incumbent activity arrives as PU channel
  updates;
* **PAL** (Priority Access Licence) holders paid for protected access
  — when the budget is exhausted their grants *preempt* GAA users;
* **GAA** (General Authorized Access) users take whatever is left and
  can be revoked at any time.

This module maps those semantics onto the existing machinery without
touching the crypto path: the environment, populations, and WATCH
decisions are exactly a :func:`~repro.watch.scenario.build_scenario`
output (so socket-plane workers rebuild it unchanged from a plain
``ScenarioConfig``), and the tiering lives entirely broker-side in
:class:`TieredAdmission` — an SAS-style authorization ledger consulted
at submission time.

Determinism is load-bearing: admission decisions depend *only* on the
order requests are submitted, never on how long shards take to answer,
so transcripts stay byte-identical across the in-memory and socket
planes and across repeated runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.watch.scenario import Scenario, ScenarioConfig, build_scenario

__all__ = [
    "TIER_INCUMBENT",
    "TIER_PAL",
    "TIER_GAA",
    "CbrsConfig",
    "CbrsScenario",
    "assign_tiers",
    "derive_gaa_capacity",
    "build_cbrs_scenario",
    "TieredAdmission",
]

TIER_INCUMBENT = "incumbent"
TIER_PAL = "pal"
TIER_GAA = "gaa"

#: Tiers that submit spectrum requests through the broker.  Incumbents
#: never request — they are the PU population whose activity *defines*
#: the budget.
REQUESTING_TIERS = (TIER_PAL, TIER_GAA)

#: Every Nth SU (by index) holds a PAL licence, mirroring the FCC's cap
#: of a minority of PAL licences per census tract; the rest are GAA.
PAL_EVERY = 3


@dataclass(frozen=True)
class CbrsConfig:
    """Knobs for the CBRS mapping on top of a base ScenarioConfig.

    ``gaa_capacity`` fixes the concurrent authorization budget, or 0 to
    derive it from the WATCH interference-budget geometry
    (:func:`derive_gaa_capacity`).
    """

    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    gaa_capacity: int = 0

    def __post_init__(self) -> None:
        if self.gaa_capacity < 0:
            raise ConfigurationError("gaa_capacity must be >= 0")


@dataclass(frozen=True)
class CbrsScenario:
    """A built CBRS deployment: base scenario plus tier metadata."""

    scenario: Scenario
    #: SU id -> tier (pal / gaa); incumbents are ``scenario.pus``.
    tier_of: dict[str, str]
    #: Concurrent authorizations the shared budget supports.
    capacity: int


def assign_tiers(num_sus: int) -> dict[str, str]:
    """Deterministic tier assignment by SU index.

    SU ids follow the ``su-<index>`` convention used by every service
    builder; index 0, ``PAL_EVERY``, 2·``PAL_EVERY``… hold PAL licences.
    """
    return {
        f"su-{index}": TIER_PAL if index % PAL_EVERY == 0 else TIER_GAA
        for index in range(num_sus)
    }


def derive_gaa_capacity(scenario: Scenario) -> int:
    """Concurrent-authorization budget from the WATCH geometry.

    For each block, count the channels whose dynamic exclusion zone
    (the WATCH interference budget around active incumbents) leaves the
    block free; the budget is the median across blocks — the number of
    simultaneous grants a typical census tract can host.  Clamped to at
    least 1 so the PAL tier always has something to preempt into.
    """
    from repro.watch.capacity import capacity_report

    env = scenario.environment
    report = capacity_report(
        env, scenario.pus, probe_power_dbm=scenario.config.su_tx_power_dbm
    )
    free_by_block = [0] * env.num_blocks
    for zones in report.per_channel:
        blocked = zones.dynamic_blocks
        for block in range(env.num_blocks):
            if block not in blocked:
                free_by_block[block] += 1
    return max(1, int(statistics.median(free_by_block)))


def build_cbrs_scenario(config: CbrsConfig | None = None) -> CbrsScenario:
    """Build the tiered deployment from a plain base scenario.

    The base environment is byte-for-byte a ``build_scenario`` output,
    so a socket worker handed the base ``ScenarioConfig`` reconstructs
    the identical WATCH substrate; only the broker needs the tier map.
    """
    cfg = config or CbrsConfig()
    scenario = build_scenario(cfg.base)
    tier_of = assign_tiers(len(scenario.sus))
    capacity = cfg.gaa_capacity or derive_gaa_capacity(scenario)
    return CbrsScenario(scenario=scenario, tier_of=tier_of, capacity=capacity)


@dataclass(frozen=True)
class _Lease:
    su_id: str
    tier: str
    sequence: int


class TieredAdmission:
    """SAS-style tiered authorization ledger for the broker.

    The ledger tracks one *lease* per SU holding an authorization.
    All mutations happen synchronously inside ``on_submit`` — in
    submission order — which is what keeps the socket and in-memory
    planes byte-identical: a shard's response latency can never reorder
    admission decisions.

    Semantics per submission:

    * a re-submitting SU replaces its own lease (the closed-loop
      drivers re-request per SU, mirroring licence refresh);
    * under capacity, everyone is admitted;
    * at capacity, a **GAA** request is rejected (reason
      ``tier_budget``);
    * at capacity, a **PAL** request preempts the *oldest* GAA lease —
      recorded as a ``("preempt", victim)`` event *before* the PAL
      SU's ``("admit", su_id)`` event, the ordering the tests assert.
      Preemption revokes the victim's authorization (it must
      re-request), exactly as an SAS revokes a GAA grant; the victim's
      in-flight protocol run is not torn down mid-round.
    * a PAL request at capacity with no GAA lease to evict is rejected
      too — the band is genuinely full of equal-or-higher tiers.

    Per-tier telemetry families are pre-registered at zero so scrapes
    and CI greps see them before the first grant.
    """

    def __init__(
        self,
        tier_of: dict[str, str],
        capacity: int,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("tier capacity must be >= 1")
        unknown = sorted(
            {tier for tier in tier_of.values() if tier not in REQUESTING_TIERS}
        )
        if unknown:
            raise ConfigurationError(
                f"non-requesting tiers in map: {', '.join(unknown)}"
            )
        self.tier_of = dict(tier_of)
        self.capacity = capacity
        self._metrics = metrics or MetricsRegistry()
        self._leases: dict[str, _Lease] = {}
        self._sequence = 0
        #: (verb, su_id) admission log: admit / reject / preempt / grant.
        self.events: list[tuple[str, str]] = []
        for tier in (TIER_INCUMBENT, TIER_PAL, TIER_GAA):
            self._metrics.counter("grants_total", tier=tier)
            self._metrics.counter("preemptions_total", tier=tier)
            self._metrics.counter("tier_rejections_total", tier=tier)

    def tier(self, su_id: str) -> str:
        """Tier of an SU; unmapped ids default to GAA (lowest tier)."""
        return self.tier_of.get(su_id, TIER_GAA)

    @property
    def active_leases(self) -> dict[str, str]:
        """su_id -> tier for currently held authorizations."""
        return {lease.su_id: lease.tier for lease in self._leases.values()}

    def _oldest_gaa(self) -> _Lease | None:
        gaa = [l for l in self._leases.values() if l.tier == TIER_GAA]
        return min(gaa, key=lambda l: l.sequence) if gaa else None

    def on_submit(self, su_id: str) -> bool:
        """Decide admission, mutating the ledger.  Returns admitted."""
        tier = self.tier(su_id)
        if su_id in self._leases:
            # Licence refresh: replace our own lease, keep its age.
            old = self._leases[su_id]
            self._leases[su_id] = _Lease(su_id, tier, old.sequence)
            self.events.append(("admit", su_id))
            return True
        if len(self._leases) >= self.capacity:
            if tier == TIER_GAA:
                self._metrics.counter("tier_rejections_total", tier=tier).inc()
                self.events.append(("reject", su_id))
                return False
            victim = self._oldest_gaa()
            if victim is None:
                self._metrics.counter("tier_rejections_total", tier=tier).inc()
                self.events.append(("reject", su_id))
                return False
            del self._leases[victim.su_id]
            self._metrics.counter(
                "preemptions_total", tier=victim.tier
            ).inc()
            self.events.append(("preempt", victim.su_id))
        self._sequence += 1
        self._leases[su_id] = _Lease(su_id, tier, self._sequence)
        self.events.append(("admit", su_id))
        return True

    def on_granted(self, su_id: str) -> None:
        """Record a resolved grant — pure telemetry, no ledger feedback."""
        self._metrics.counter("grants_total", tier=self.tier(su_id)).inc()
        self.events.append(("grant", su_id))

    def on_pu_update(self) -> None:
        """Incumbent activity reached the SDC — count it as such."""
        self._metrics.counter("grants_total", tier=TIER_INCUMBENT).inc()
