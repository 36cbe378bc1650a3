"""Discrete-event simulation of a PISA deployment at service scale.

The protocol benchmarks measure one request in isolation; a real SDC
serves a *population* — SUs arriving stochastically, PUs switching
channels (§VI-A cites 2.3-2.7 virtual switches/hour per viewer), and a
single crypto-bound server queueing it all.  This subpackage couples

* the measured per-phase costs (:mod:`repro.analysis.scaling`),
* the wire sizes of each message over one WAN link, and
* the actual WATCH decision logic (grant/deny comes from the real
  plaintext oracle on the scenario's geometry)

into an event-driven simulator answering capacity questions: request
latency distribution, server utilisation, and the arrival rate at which
the deployment saturates (at the STP, under Table II's costs).

It is also the system's one **workload engine**: named traffic models
(:mod:`repro.sim.traffic`) that drive the simulator,
``serve-loadtest --workload`` and the chaos harness alike, the tiered
CBRS regulatory scenario (:mod:`repro.sim.cbrs`), and the scenario
registry (:mod:`repro.sim.registry`).
"""

from repro.sim.cbrs import CbrsConfig, TieredAdmission, build_cbrs_scenario
from repro.sim.costmodel import PhaseCosts, ServiceCostModel, paper_profile
from repro.sim.events import EventQueue, ScheduledEvent
from repro.sim.registry import BuiltScenario, build_named_scenario, scenario_names
from repro.sim.simulator import DeploymentSimulator, SimulationReport
from repro.sim.traffic import (
    ArrivalEvent,
    ArrivalSchedule,
    DiurnalTraffic,
    FlashCrowdTraffic,
    PoissonTraffic,
    PuChurnModel,
    RandomWaypointMobility,
    WorkloadSpec,
    build_schedule,
    resolve_workload,
    workload_names,
)

__all__ = [
    "PhaseCosts",
    "ServiceCostModel",
    "paper_profile",
    "EventQueue",
    "ScheduledEvent",
    "DeploymentSimulator",
    "SimulationReport",
    "ArrivalEvent",
    "ArrivalSchedule",
    "PoissonTraffic",
    "DiurnalTraffic",
    "FlashCrowdTraffic",
    "PuChurnModel",
    "RandomWaypointMobility",
    "WorkloadSpec",
    "build_schedule",
    "resolve_workload",
    "workload_names",
    "CbrsConfig",
    "TieredAdmission",
    "build_cbrs_scenario",
    "BuiltScenario",
    "build_named_scenario",
    "scenario_names",
]
