"""Multi-SU admission and the Δ_redn feedback loop (§IV-A validation).

The paper handles aggregate interference from multiple SUs with a fixed
margin ``Δ_redn`` added to the SINR requirement, and asserts that "the
feedback loop ensures that the PUs are finally protected and N becomes
stable".  This module validates that claim physically:

:class:`AdmissionSimulator` admits SUs one at a time through the (real)
WATCH decision engine, accumulates the *actual* aggregate interference
each admitted SU contributes at every PU, and checks the resulting PU
SINRs against the protection threshold.  The experiment behind
``benchmarks/bench_feedback.py`` shows both halves of the paper's claim:

* a *fixed* small margin (the deployment default Δ_redn ≈ 1 dB) protects
  against ≈1 simultaneous borderline SU; under a dense population, each
  SU passes its per-SU test yet the aggregate drives PUs below the SINR
  floor — the reason the margin must adapt;
* :class:`FeedbackController` closes the loop: widen Δ_redn, make every
  SU re-request against the tightened budget, repeat until the worst PU
  SINR clears the threshold — after which the budget matrix ``N`` stops
  changing between rounds ("N becomes stable").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.radio.units import linear_to_db
from repro.watch.entities import PUReceiver, SUTransmitter
from repro.watch.environment import SpectrumEnvironment
from repro.watch.sdc import Decision, PlaintextSDC

__all__ = ["PuProtectionState", "AdmissionOutcome", "AdmissionSimulator"]


@dataclass
class PuProtectionState:
    """Physical interference bookkeeping for one PU."""

    pu: PUReceiver
    aggregate_interference_mw: float = 0.0

    @property
    def sinr_db(self) -> float:
        """Signal-to-(secondary-)interference ratio, ignoring noise."""
        if self.aggregate_interference_mw <= 0:
            return float("inf")
        return linear_to_db(
            self.pu.signal_strength_mw / self.aggregate_interference_mw
        )


@dataclass(frozen=True)
class AdmissionOutcome:
    """Result of one SU admission attempt."""

    su_id: str
    decision: Decision
    #: Worst PU SINR (dB) after this admission step.
    worst_sinr_db: float


class AdmissionSimulator:
    """Sequential SU admission with physical interference accounting.

    Every admission decision runs through the real
    :class:`~repro.watch.sdc.PlaintextSDC`; on grant, the SU's exact
    interference contribution (EIRP × path gain) is added to each PU's
    aggregate.  ``worst_sinr_db`` then tells whether the Δ_redn margin
    actually protected the PUs against the *sum* of admitted SUs.
    """

    def __init__(self, environment: SpectrumEnvironment, pus: list[PUReceiver]) -> None:
        self.environment = environment
        self.sdc = PlaintextSDC(environment)
        self.states: dict[str, PuProtectionState] = {}
        for pu in pus:
            self.sdc.pu_update(pu)
            if pu.is_active:
                self.states[pu.receiver_id] = PuProtectionState(pu=pu)
        self.admitted: list[SUTransmitter] = []
        self.outcomes: list[AdmissionOutcome] = []

    def _interference_at(self, su: SUTransmitter, pu: PUReceiver) -> float:
        """The SU's physical interference power (mW) at a PU."""
        env = self.environment
        gain = env.su_pathloss(pu.channel_slot).gain_linear(
            env.grid.distance_m(su.block_index, pu.block_index)
        )
        return su.eirp_mw * gain

    def worst_sinr_db(self) -> float:
        """Minimum protection SINR across all active PUs."""
        if not self.states:
            return float("inf")
        return min(state.sinr_db for state in self.states.values())

    def attempt(self, su: SUTransmitter) -> AdmissionOutcome:
        """Run one admission: decide via WATCH, account physics on grant."""
        decision = self.sdc.process_request(su)
        if decision.granted:
            self.admitted.append(su)
            for state in self.states.values():
                state.aggregate_interference_mw += self._interference_at(
                    su, state.pu
                )
        outcome = AdmissionOutcome(
            su_id=su.su_id, decision=decision, worst_sinr_db=self.worst_sinr_db()
        )
        self.outcomes.append(outcome)
        return outcome

    def run(self, sus: list[SUTransmitter]) -> list[AdmissionOutcome]:
        """Admit a population sequentially; returns per-step outcomes."""
        return [self.attempt(su) for su in sus]

    @property
    def num_admitted(self) -> int:
        return len(self.admitted)

    def budget_is_stationary(self) -> bool:
        """The budget N must not change across admissions (§IV-A:
        "the interference budgets stay the same" — Δ_redn absorbs the
        multi-SU effect instead of mutating N)."""
        import numpy as np

        before = self.sdc.budget
        # Re-derive N from scratch; identical object content expected.
        rebuilt = PlaintextSDC(self.environment)
        for state in self.states.values():
            rebuilt.pu_update(state.pu)
        after = rebuilt.budget
        return all(
            before[c, b] == after[c, b]
            for c in range(self.environment.num_channels)
            for b in range(self.environment.num_blocks)
        )


#: Δ_redn widening per feedback round, dB.
FEEDBACK_STEP_DB = 3.0

#: Rounds the controller runs before it reports the PUs unprotected.
FEEDBACK_MAX_ITERATIONS = 12


@dataclass(frozen=True)
class FeedbackReport:
    """Outcome of the adaptive Δ_redn loop."""

    iterations: int
    final_redn_db: float
    num_admitted: int
    worst_sinr_db: float
    protected: bool
    budget_stable: bool
    #: (redn_db, admitted, worst_sinr_db) per iteration, for the bench.
    trajectory: tuple[tuple[float, int, float], ...]


class FeedbackController:
    """The §IV-A feedback loop, made concrete.

    WATCH absorbs multi-SU aggregation into the margin ``Δ_redn``; when
    the deployed margin under-estimates the simultaneous-SU population,
    PUs dip below their SINR floor.  The controller closes the loop the
    way the paper sketches: observe the worst PU SINR, widen the margin,
    and re-run admission (every SU re-requests against the tightened
    budget) until all PUs are protected.  Once protected, the budget
    matrix ``N`` no longer changes between rounds — the paper's
    "N becomes stable".
    """

    def __init__(
        self,
        grid,
        towers,
        pus: list[PUReceiver],
        base_params,
    ) -> None:
        from dataclasses import replace

        self.grid = grid
        self.towers = towers
        self.pus = pus
        self.base_params = base_params
        self._replace = replace

    def _simulator(self, redn_db: float) -> AdmissionSimulator:
        params = self._replace(self.base_params, redn_db=redn_db)
        environment = SpectrumEnvironment(self.grid, params, transmitters=self.towers)
        # PU signal strengths are physical facts, independent of Δ_redn;
        # reuse the provided receivers directly.
        return AdmissionSimulator(environment, self.pus)

    def converge(self, sus: list[SUTransmitter]) -> FeedbackReport:
        """Iterate admission rounds, widening Δ_redn until protected."""
        redn_db = self.base_params.redn_db
        trajectory = []
        previous_budget = None
        budget_stable = False
        simulator = None
        for iteration in range(1, FEEDBACK_MAX_ITERATIONS + 1):
            simulator = self._simulator(redn_db)
            simulator.run(sus)
            worst = simulator.worst_sinr_db()
            trajectory.append((redn_db, simulator.num_admitted, worst))
            protected = worst >= self.base_params.tv_sinr_db
            budget = simulator.sdc.budget
            if previous_budget is not None:
                budget_stable = all(
                    budget[c, b] == previous_budget[c, b]
                    for c in range(budget.shape[0])
                    for b in range(budget.shape[1])
                )
            previous_budget = budget
            if protected:
                return FeedbackReport(
                    iterations=iteration,
                    final_redn_db=redn_db,
                    num_admitted=simulator.num_admitted,
                    worst_sinr_db=worst,
                    protected=True,
                    budget_stable=budget_stable or iteration == 1,
                    trajectory=tuple(trajectory),
                )
            redn_db += FEEDBACK_STEP_DB
        return FeedbackReport(
            iterations=FEEDBACK_MAX_ITERATIONS,
            final_redn_db=redn_db - FEEDBACK_STEP_DB,
            num_admitted=simulator.num_admitted if simulator else 0,
            worst_sinr_db=trajectory[-1][2],
            protected=False,
            budget_stable=budget_stable,
            trajectory=tuple(trajectory),
        )


__all__.extend(["FeedbackReport", "FeedbackController"])
