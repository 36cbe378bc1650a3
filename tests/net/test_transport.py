"""Unit tests for the accounted in-memory transport."""

import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinkDownError, MessageDroppedError
from repro.net.transport import InMemoryTransport
from repro.telemetry import MetricsRegistry


@dataclass
class FakeMessage:
    size: int

    def wire_size(self) -> int:
        return self.size


@dataclass
class OtherMessage:
    size: int

    def wire_size(self) -> int:
        return self.size


class TestAccounting:
    def test_send_returns_message(self):
        transport = InMemoryTransport()
        msg = FakeMessage(10)
        assert transport.send(msg, "a", "b") is msg

    def test_total_bytes(self):
        transport = InMemoryTransport()
        transport.send(FakeMessage(100), "a", "b")
        transport.send(FakeMessage(50), "b", "a")
        assert transport.total_bytes() == 150
        assert transport.count() == 2

    def test_filter_by_kind(self):
        transport = InMemoryTransport()
        transport.send(FakeMessage(100), "a", "b")
        transport.send(OtherMessage(7), "a", "b")
        assert transport.total_bytes("FakeMessage") == 100
        assert transport.total_bytes("OtherMessage") == 7
        assert transport.count("FakeMessage") == 1

    def test_by_kind_summary(self):
        transport = InMemoryTransport()
        transport.send(FakeMessage(10), "a", "b")
        transport.send(FakeMessage(20), "a", "b")
        assert transport.by_kind() == {"FakeMessage": (2, 30)}

    def test_memory_stays_flat_over_many_sends(self):
        """A long-running broker sends forever; accounting must not grow."""
        transport = InMemoryTransport()
        transport.attach_metrics(MetricsRegistry())
        request, response = FakeMessage(29_000_000), OtherMessage(4_100)
        for _ in range(10):  # first-use allocations: kinds, links, counters
            transport.send(request, "su-0", "sdc")
            transport.send(response, "sdc", "su-0")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                transport.send(request, "su-0", "sdc")
                transport.send(response, "sdc", "su-0")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert transport.count() == 20_020
        assert grown < 64 * 1024


class TestLinkAdministration:
    def test_failed_link_raises_and_records_nothing(self):
        transport = InMemoryTransport()
        transport.fail_link("router", "shard-0")
        with pytest.raises(LinkDownError):
            transport.send(FakeMessage(10), "router", "shard-0")
        # The bytes never made it onto the wire.
        assert transport.count() == 0
        assert transport.total_bytes() == 0
        # The reverse direction and other links still flow.
        transport.send(FakeMessage(10), "shard-0", "router")
        transport.send(FakeMessage(10), "router", "shard-1")
        assert transport.count() == 2

    def test_restore_link(self):
        transport = InMemoryTransport()
        transport.fail_link("a", "b")
        transport.restore_link("a", "b")
        transport.send(FakeMessage(1), "a", "b")
        assert transport.count() == 1

    def test_fail_endpoint_cuts_both_directions(self):
        transport = InMemoryTransport()
        transport.fail_endpoint("shard-0")
        for sender, receiver in (("router", "shard-0"), ("shard-0", "router")):
            with pytest.raises(LinkDownError):
                transport.send(FakeMessage(1), sender, receiver)
        transport.restore_endpoint("shard-0")
        transport.send(FakeMessage(1), "router", "shard-0")
        assert transport.link_is_up("router", "shard-0")


LINKS = (("su-0", "sdc"), ("sdc", "stp"), ("router", "shard-0"), ("shard-0", "router"))

_OPS = st.one_of(
    st.tuples(
        st.just("send"),
        st.sampled_from(LINKS),
        st.sampled_from((FakeMessage, OtherMessage)),
        st.integers(min_value=0, max_value=5_000),
    ),
    st.tuples(
        st.sampled_from(("drop", "duplicate", "delay")),
        st.sampled_from(LINKS),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.sampled_from(("cut", "restore")), st.sampled_from(LINKS)),
)


class TestMetricsMirroring:
    """Per-link transfer counters agree with the per-kind totals.

    Whatever is counted — ordinary sends, wire-level duplicates — lands
    in the attached registry too; dropped and cut-link sends (never on
    the wire) land nowhere.
    """

    @staticmethod
    def _counters(metrics, family):
        prefix = f"{family}{{link="
        return {
            key[len(prefix):-1]: value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith(prefix)
        }

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_OPS, max_size=40))
    def test_counters_sum_to_totals_under_faults(self, ops):
        transport = InMemoryTransport()
        metrics = MetricsRegistry()
        transport.attach_metrics(metrics)
        cut: set[tuple[str, str]] = set()
        by_link: dict[str, list[int]] = {}
        by_kind: dict[str, tuple[int, int]] = {}
        for op in ops:
            action, link = op[0], op[1]
            if action == "cut":
                transport.fail_link(*link)
                cut.add(link)
            elif action == "restore":
                transport.restore_link(*link)
                cut.discard(link)
            elif action == "drop":
                transport.inject_faults(*link, drop=op[2])
            elif action == "duplicate":
                transport.inject_faults(*link, duplicate=op[2])
            elif action == "delay":
                transport.inject_faults(*link, delay_s=0.01, delay_count=op[2])
            else:
                message = op[2](op[3])
                dropped = transport.fault_stats["dropped"]
                duplicated = transport.fault_stats["duplicated"]
                before = (transport.count(), transport.total_bytes())
                try:
                    transport.send(message, *link)
                except (LinkDownError, MessageDroppedError) as exc:
                    assert isinstance(exc, LinkDownError) == (link in cut)
                    assert transport.fault_stats["dropped"] == dropped + (
                        link not in cut
                    )
                    assert (transport.count(), transport.total_bytes()) == before
                    continue
                assert link not in cut
                copies = 1 + transport.fault_stats["duplicated"] - duplicated
                label = "->".join(link)
                link_totals = by_link.setdefault(label, [0, 0])
                link_totals[0] += copies
                link_totals[1] += copies * message.size
                kind = type(message).__name__
                count, size = by_kind.get(kind, (0, 0))
                by_kind[kind] = (count + copies, size + copies * message.size)
        records = self._counters(metrics, "transport_records_total")
        sizes = self._counters(metrics, "transport_bytes_total")
        assert records == {label: count for label, (count, _) in by_link.items()}
        assert sizes == {label: size for label, (_, size) in by_link.items()}
        assert transport.by_kind() == by_kind
        assert sum(records.values()) == transport.count()
        assert sum(sizes.values()) == transport.total_bytes()

    def test_duplicates_counted_and_drops_not(self):
        transport = InMemoryTransport()
        metrics = MetricsRegistry()
        transport.attach_metrics(metrics)
        transport.inject_faults("a", "b", drop=1, duplicate=1)
        with pytest.raises(MessageDroppedError):
            transport.send(FakeMessage(10), "a", "b")
        transport.send(FakeMessage(10), "a", "b")  # duplicated on the wire
        transport.send(FakeMessage(5), "a", "b")
        assert transport.count() == 3  # 2 copies + 1 plain, drop absent
        assert self._counters(metrics, "transport_records_total") == {"a->b": 3}
        assert self._counters(metrics, "transport_bytes_total") == {"a->b": 25}

    def test_aggregate_totals_match(self):
        transport = InMemoryTransport()
        metrics = MetricsRegistry()
        transport.attach_metrics(metrics)
        for size, link in ((10, ("a", "b")), (20, ("b", "c")), (30, ("a", "b"))):
            transport.send(FakeMessage(size), *link)
        snap = metrics.snapshot()["counters"]
        assert sum(
            v for k, v in snap.items() if k.startswith("transport_records_total")
        ) == transport.count()
        assert sum(
            v for k, v in snap.items() if k.startswith("transport_bytes_total")
        ) == transport.total_bytes()
