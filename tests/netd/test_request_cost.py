"""What one cluster request costs on the socket plane, counted in frames.

On two shards a request is one ``phase1`` transact per shard, one
``sign_req`` to the STP worker (whose nonces come back from the
authority in one ``rand_exponents`` transact) and one ``commit_epoch``
per shard: five broker transacts, twelve frames with the authority's
two.  Phase 2 costs no frame — the front computes ``ΣQ̃`` itself.
"""

from repro.crypto.rand import DeterministicRandomSource
from repro.netd.plane import build_socket_coordinator
from repro.telemetry import MetricsRegistry
from repro.watch.scenario import ScenarioConfig


def _frames(metrics) -> int:
    counters = metrics.snapshot()["counters"]
    return sum(
        value for key, value in counters.items()
        if key.startswith("netd_frames_total{")
    )


def test_one_request_costs_five_transacts_and_twelve_frames():
    metrics = MetricsRegistry()
    coordinator, scenario = build_socket_coordinator(
        2,
        256,
        DeterministicRandomSource(seed=7),
        ScenarioConfig(seed=7, num_sus=1),
        metrics=metrics,
    )
    try:
        for pu in scenario.pus:
            coordinator.enroll_pu(pu)
        su_id = coordinator.enroll_su(scenario.sus[0]).su_id
        # The first round dials every peer; the second is the steady state.
        coordinator.run_request_round(su_id)
        transport = coordinator.transport
        kinds = []
        transact = transport.transact

        def counted(endpoint, kind, payload, timeout=None):
            kinds.append(kind)
            return transact(endpoint, kind, payload, timeout=timeout)

        transport.transact = counted
        before = _frames(metrics)
        coordinator.run_request_round(su_id)
        frames = _frames(metrics) - before
    finally:
        coordinator.close()
    assert sorted(kinds) == [
        "commit_epoch", "commit_epoch", "phase1", "phase1", "sign_req"
    ]
    assert frames == 12
