"""Injected transport faults: deterministic budgets per directed link."""

from dataclasses import dataclass

import pytest

from repro.errors import LinkDownError, MessageDroppedError
from repro.net.transport import InMemoryTransport, resolve_transport


@dataclass
class Msg:
    def wire_size(self) -> int:
        return 10


class TestDropFaults:
    def test_drop_budget_consumed_one_send_at_a_time(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", drop=2)
        for _ in range(2):
            with pytest.raises(MessageDroppedError):
                transport.send(Msg(), "a", "b")
        assert transport.send(Msg(), "a", "b") is not None
        assert transport.fault_stats["dropped"] == 2

    def test_dropped_send_records_nothing(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", drop=1)
        with pytest.raises(MessageDroppedError):
            transport.send(Msg(), "a", "b")
        assert transport.count() == 0  # never hit the wire accounting

    def test_drop_is_per_directed_link(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", drop=1)
        transport.send(Msg(), "b", "a")  # reverse direction unaffected
        with pytest.raises(MessageDroppedError):
            transport.send(Msg(), "a", "b")

    def test_budgets_are_additive(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", drop=1)
        transport.inject_faults("a", "b", drop=1)
        for _ in range(2):
            with pytest.raises(MessageDroppedError):
                transport.send(Msg(), "a", "b")

    def test_drop_differs_from_link_down(self):
        transport = InMemoryTransport()
        transport.fail_link("a", "b")
        with pytest.raises(LinkDownError):
            transport.send(Msg(), "a", "b")


class TestDelayAndDuplicate:
    def test_delay_stretches_next_n_sends(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", delay_s=0.5, delay_count=2)
        delays = []
        for _ in range(3):
            delays.append(transport.pending_delay_seconds("a", "b"))
            transport.send(Msg(), "a", "b")
        delays.append(transport.pending_delay_seconds("a", "b"))
        # The first two sends carry the injected 0.5 s; then the budget
        # is spent and the link is back to no delay at all.
        assert delays == [0.5, 0.5, 0.0, 0.0]
        assert transport.pending_delay_seconds("b", "a") == 0.0
        assert transport.fault_stats["delayed"] == 2
        assert transport.count() == 3

    def test_unbounded_delay_lasts_until_cleared(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", delay_s=0.4)
        for _ in range(5):
            transport.send(Msg(), "a", "b")
        assert transport.pending_delay_seconds("a", "b") == 0.4
        transport.clear_faults()
        assert transport.pending_delay_seconds("a", "b") == 0.0
        assert transport.fault_stats["delayed"] == 5

    def test_duplicate_doubles_the_wire_log_entry(self):
        transport = InMemoryTransport()
        transport.inject_faults("a", "b", duplicate=1)
        transport.send(Msg(), "a", "b")
        transport.send(Msg(), "a", "b")
        assert transport.count() == 3  # 2 copies + 1 normal
        assert transport.fault_stats["duplicated"] == 1


class TestResolveTransport:
    def test_identity(self):
        transport = InMemoryTransport()
        assert resolve_transport(transport) is transport

    def test_unwraps_inner_chain(self):
        class Wrapper:
            def __init__(self, inner):
                self.inner = inner

        transport = InMemoryTransport()
        assert resolve_transport(Wrapper(Wrapper(transport))) is transport

    def test_none_when_no_transport_in_the_stack(self):
        class Wrapper:
            inner = None

        assert resolve_transport(Wrapper()) is None
        assert resolve_transport(None) is None
