"""Bench-owned tracing: spans and counts at the layer boundaries.

Everything here wraps *public callables* of ``repro`` from the outside
(phase callables handed to a ``BatchAllocator``, an ``Executor`` passed
through the ``executor=`` seams, methods shadowed on instances the bench
itself created).  Nothing inside ``src/`` knows it is being timed.

A traced run installs the probes once and flips :attr:`Probes.enabled`
between its two windows, so one deployment gives both an untraced
baseline and the traced numbers; a disabled probe is one attribute test
in front of the wrapped call.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

from repro.service.batching import BatchAllocator

now = time.perf_counter


class Probes:
    """Spans (id, name, start, end, parent, request) plus plain counters.

    Spans nest per *subject* (an SU or PU id): a subject never has two
    operations in flight (closed loop per SU), so the subject's innermost
    open span is the parent of whatever is recorded for it next.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        #: counter name -> running total (counts, bytes, busy seconds)
        self.totals: dict[str, float] = defaultdict(float)
        self._open: dict[str, int] = {}
        #: shard sub-queries are recorded from the router's scatter threads
        self._lock = threading.Lock()
        #: SU whose phase 1 ran last; owns the epoch's ``commit_epoch``
        self.last_subject: str | None = None
        #: id(PU update message) -> its open ``pu.switch`` root span
        self.pu_roots: dict[int, int] = {}

    # -- spans ---------------------------------------------------------------

    def begin(self, name, subject=None, *, parent=None, request=None) -> int:
        with self._lock:
            if parent is None and subject is not None:
                parent = self._open.get(subject)
            if request is None and parent is not None:
                request = self.spans[parent]["request"]
            index = len(self.spans)
            self.spans.append({
                "id": index, "name": name, "parent": parent,
                "request": request, "start": now(), "end": None,
            })
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = now()

    @contextmanager
    def span(self, name, subject=None, *, parent=None, request=None, leaf=False):
        """Record one span; unless ``leaf``, later spans of ``subject`` nest in it."""
        index = self.begin(name, subject, parent=parent, request=request)
        nest = subject is not None and not leaf
        if nest:
            previous = self._open.get(subject)
            self._open[subject] = index
        try:
            yield index
        finally:
            self.end(index)
            if nest:
                if previous is None:
                    self._open.pop(subject, None)
                else:
                    self._open[subject] = previous

    def timed(self, name, fn, subject_of=None, leaf=False):
        """``fn`` inside a span; ``subject_of(args)`` names its SU or PU."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            subject = subject_of(args) if subject_of else self.last_subject
            with self.span(name, subject, leaf=leaf):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name, fn, size_of=None):
        """``fn`` accumulating ``name.calls``, ``name.busy_s`` and ``name.size``."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                with self._lock:
                    self.totals[f"{name}.busy_s"] += elapsed
                    self.totals[f"{name}.calls"] += 1
                    if size_of is not None:
                        self.totals[f"{name}.size"] += size_of(args)

        return wrapper

    # -- reading back --------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def traced_pu_handler(probes: Probes, handler):
    """``handler`` as the child that closes the switch's ``pu.switch`` span."""

    def apply(message):
        root = probes.pu_roots.pop(id(message), None)
        if root is None:
            return handler(message)
        try:
            with probes.span("cluster.pu_update_apply", parent=root):
                return handler(message)
        finally:
            probes.end(root)

    return apply


class CountingExecutor:
    """An ``Executor`` that counts the modexps it evaluates.

    Same arithmetic as ``SerialExecutor``; the counts are exact and do
    not depend on the host.
    """

    def __init__(self, probes: Probes) -> None:
        self._probes = probes

    def pow_many(self, jobs):
        probes = self._probes
        if not probes.enabled:
            return [pow(b, e, m) for b, e, m in jobs]
        start = now()
        results = [pow(b, e, m) for b, e, m in jobs]
        elapsed = now() - start
        bits = sum(e.bit_length() for _, e, _ in jobs)
        with probes._lock:
            probes.totals["crypto.pow_many.busy_s"] += elapsed
            probes.totals["crypto.modexp"] += len(jobs)
            probes.totals["crypto.modexp_exponent_bits"] += bits
        return results


class TracedAllocator(BatchAllocator):
    """A ``BatchAllocator`` whose pass is a span under each member request.

    ``service.allocate`` starts when the epoch is dispatched, so
    ``submit -> allocate start`` is a request's queue wait, and the phase
    spans recorded by the timed callables fall inside it.
    """

    def __init__(self, probes: Probes, **kwargs) -> None:
        super().__init__(**kwargs)
        self._probes = probes

    def allocate(self, epoch, spans=None):
        if not self._probes.enabled:
            return super().allocate(epoch, spans=spans)
        self._probes.totals["service.allocate.passes"] += 1
        with ExitStack() as stack:
            for su_id, _request in epoch.items:
                stack.enter_context(self._probes.span("service.allocate", su_id))
            return super().allocate(epoch, spans=spans)


def traced_allocator(probes: Probes, coordinator, packed: bool) -> TracedAllocator:
    """The coordinator's protocol phases as timed callables."""
    sdc, stp = coordinator.sdc, coordinator.stp
    phase1, phase2 = (
        ("pisa.packed_phase1", "pisa.packed_phase2")
        if packed
        else ("cluster.phase1", "cluster.phase2")
    )

    def start_request(request, **kwargs):
        probes.last_subject = request.su_id
        return sdc.start_request(request, **kwargs)

    def process_response(su_id, response):
        return coordinator.su_client(su_id).process_response(
            response, stp.directory
        )

    def message_su(args):
        return args[0].su_id

    commit = getattr(sdc, "commit_epoch", None)
    return TracedAllocator(
        probes,
        phase1=probes.timed(phase1, start_request, message_su),
        convert=probes.timed("pisa.stp", stp.handle_sign_extraction, message_su),
        phase2=probes.timed(phase2, sdc.finish_request, message_su),
        process_response=probes.timed(
            "pisa.license", process_response, lambda args: args[0]
        ),
        transport=coordinator.transport,
        commit_epoch=probes.timed("cluster.commit_epoch", commit) if commit else None,
    )
