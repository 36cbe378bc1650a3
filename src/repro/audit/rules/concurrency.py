"""ASY0xx — asyncio-hygiene rules for the code around the broker loop.

``repro.service`` runs the broker on an event loop; ``repro.netd`` —
blocking sockets, a thread per connection, a supervisor's monitor
thread — is the sync code next to it and stays in scope so that it
grows no coroutine of its own unnoticed.  Five failure shapes cover the
concurrency bugs that actually bite there:

* **ASY001** — a blocking call (``time.sleep``, sync socket/file I/O,
  ``fsync``) *reachable* from a coroutine: it stalls every connection
  on the loop, not just the caller.  The sanctioned escape hatch is
  ``asyncio.to_thread``/``run_in_executor``, which the fact lattice
  treats as a mask.
* **ASY002** — calling a coroutine function without ``await``: the body
  never runs and the bug is silent until a "never awaited" warning in
  some unrelated test.
* **ASY003** — ``create_task``/``ensure_future`` whose result is
  dropped: the event loop keeps only a weak reference, so the task can
  be garbage-collected mid-flight, and its exceptions vanish.
* **ASY004** — shared ``self`` state read before an ``await`` and
  written after it without a lock: another task interleaves inside the
  window and the write clobbers its update.
* **ASY005** — sync code touching a live loop with non-thread-safe
  methods (``loop.call_soon``/``create_task``): from a connection or
  monitor thread this corrupts the loop's internal queues; the
  thread-safe spellings exist for exactly this.

All five are *summary* rules: they run over cached module summaries and
the interprocedural fact lattice, never re-parsing unchanged files.
"""

from __future__ import annotations

from typing import Iterator

from repro.audit.findings import Finding
from repro.audit.registry import register_rule
from repro.audit.taint import FACT_BLOCKING

_SPAWNERS = ("create_task", "ensure_future")


def _finding(summary, info, anchor, rule: str, message: str) -> Finding:
    return Finding(
        path=summary.path,
        line=anchor.lineno,
        col=anchor.col,
        rule=rule,
        message=message,
        module=info.module,
        context=anchor.context,
        snippet=anchor.snippet,
    )


def _in_asyncio_scope(config, module: str) -> bool:
    return config.in_scope(module, config.asyncio_scope)


@register_rule(
    "ASY001",
    "no blocking calls reachable from event-loop coroutines",
    kind="summary",
    rationale=(
        "A coroutine runs on the shared event loop: one time.sleep, sync "
        "socket read, or fsync inside it — or inside anything it calls, "
        "any number of frames deep — freezes every connection on the "
        "plane for the duration. The fact lattice propagates 'may block' "
        "across the call graph, and treats asyncio.to_thread/"
        "run_in_executor as the sanctioned mask."
    ),
    bad=(
        "async def _serve(...):\n"
        "    _write_ready(path, payload)   # helper does write_text+os.replace"
    ),
    good=(
        "async def _serve(...):\n"
        "    await asyncio.to_thread(_write_ready, path, payload)"
    ),
)
def check_blocking_in_coroutine(project, config) -> Iterator[Finding]:
    for module, summary in sorted(project.modules.items()):
        if not _in_asyncio_scope(config, module):
            continue
        for info in summary.functions.values():
            if not info.is_async:
                continue
            for op in info.ops:
                if op.kind == "blocking" and not op.wrapped:
                    yield _finding(
                        summary,
                        info,
                        op,
                        "ASY001",
                        f"blocking call {op.detail} inside a coroutine — "
                        "wrap it in asyncio.to_thread",
                    )
            for call in info.calls:
                if call.wrapped:
                    continue
                for callee in project.resolve(module, info.qualname, call.callee):
                    provenance = project.facts.get(callee, {}).get(FACT_BLOCKING)
                    if provenance:
                        yield _finding(
                            summary,
                            info,
                            call,
                            "ASY001",
                            f"coroutine reaches blocking work through "
                            f"{call.callee}() ({provenance}) — move the "
                            "blocking frame behind asyncio.to_thread",
                        )
                        break


@register_rule(
    "ASY002",
    "no coroutine calls without await",
    kind="summary",
    rationale=(
        "Calling an async function returns a coroutine object; without an "
        "await (or task wrapper) the body never executes. The failure is "
        "silent at the call site — the handshake/cleanup simply doesn't "
        "happen — and surfaces only as a 'coroutine was never awaited' "
        "warning somewhere else entirely."
    ),
    bad="conn.drain()                        # coroutine object discarded",
    good="await conn.drain()",
)
def check_unawaited_coroutine(project, config) -> Iterator[Finding]:
    for module, summary in sorted(project.modules.items()):
        if not _in_asyncio_scope(config, module):
            continue
        for info in summary.functions.values():
            for call in info.calls:
                if call.awaited or call.task_spawn or call.wrapped:
                    continue
                if not call.bare_expr:
                    continue
                for callee in project.resolve(module, info.qualname, call.callee):
                    if project.functions[callee].is_async:
                        yield _finding(
                            summary,
                            info,
                            call,
                            "ASY002",
                            f"{call.callee}() is a coroutine function but the "
                            "result is discarded without await",
                        )
                        break


@register_rule(
    "ASY003",
    "no fire-and-forget tasks held by no reference",
    kind="summary",
    rationale=(
        "The event loop holds only a weak reference to tasks: a bare "
        "create_task/ensure_future call can be garbage-collected before "
        "it finishes, and any exception it raises is swallowed. Hold the "
        "handle (self._task = ...) or await it; the orphan-guard watchdog "
        "in repro.netd exists because of exactly this failure."
    ),
    bad="asyncio.create_task(self._run())    # GC may cancel it mid-flight",
    good="self._loop_task = asyncio.create_task(self._run())",
)
def check_fire_and_forget(project, config) -> Iterator[Finding]:
    for module, summary in sorted(project.modules.items()):
        if not _in_asyncio_scope(config, module):
            continue
        for info in summary.functions.values():
            for call in info.calls:
                tail = call.callee.rsplit(".", 1)[-1]
                if tail in _SPAWNERS and call.bare_expr and not call.awaited:
                    yield _finding(
                        summary,
                        info,
                        call,
                        "ASY003",
                        f"{call.callee}() result is dropped — the loop keeps "
                        "only a weak reference, so the task can be GC'd; "
                        "store the handle",
                    )


@register_rule(
    "ASY004",
    "no shared-state mutation across an await without a lock",
    kind="summary",
    rationale=(
        "An await is a scheduling point: between reading self.x and "
        "writing it back, any other task can run and update the same "
        "attribute, and the write after the await silently clobbers it. "
        "Guard the read-modify-write with an asyncio.Lock, or restructure "
        "so the state is written before suspending."
    ),
    bad=(
        "pending = self._pending\n"
        "result = await self._dispatch(req)\n"
        "self._pending = pending - 1         # clobbers concurrent updates"
    ),
    good=(
        "async with self._lock:\n"
        "    self._pending -= 1              # atomic w.r.t. other tasks"
    ),
)
def check_await_boundary_race(project, config) -> Iterator[Finding]:
    for module, summary in sorted(project.modules.items()):
        if not _in_asyncio_scope(config, module):
            continue
        for info in summary.functions.values():
            for race in info.races:
                if race.locked:
                    continue
                yield _finding(
                    summary,
                    info,
                    race,
                    "ASY004",
                    f"self.{race.attr} read at line {race.read_line} and "
                    f"written at line {race.write_line} with an await in "
                    "between and no lock — another task can interleave",
                )


@register_rule(
    "ASY005",
    "no non-thread-safe loop calls from sync (thread) code",
    kind="summary",
    rationale=(
        "loop.call_soon/call_at/call_later/create_task mutate the loop's "
        "ready queue without locking — they are only safe from the loop "
        "thread itself. Any other thread must use the loop's *_threadsafe "
        "spellings (call_soon_threadsafe for a callback), which wake the "
        "loop through its self-pipe."
    ),
    bad="self._loop.call_soon(conn.close)    # from the monitor thread",
    good="self._loop.call_soon_threadsafe(conn.close)",
)
def check_cross_thread_loop_access(project, config) -> Iterator[Finding]:
    for module, summary in sorted(project.modules.items()):
        if not _in_asyncio_scope(config, module):
            continue
        for info in summary.functions.values():
            if info.is_async:
                continue  # coroutines already run on the loop thread
            for op in info.ops:
                if op.kind == "loop-handoff":
                    yield _finding(
                        summary,
                        info,
                        op,
                        "ASY005",
                        f"{op.detail} from sync code — not thread-safe; use "
                        "call_soon_threadsafe",
                    )
