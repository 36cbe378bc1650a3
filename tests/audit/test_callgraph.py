"""Call-graph construction, resolution, and fact-lattice propagation."""

from repro.audit.engine import AuditConfig
from repro.audit.taint import FACT_AMBIENT_RANDOM, FACT_BLOCKING, FACT_WALLCLOCK
from tests.audit.helpers import build_test_project


class TestResolution:
    def test_local_function_call(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                def helper():
                    pass

                def caller():
                    helper()
                """
            }
        )
        assert project.resolve("repro.netd.x", "caller", "helper") == (
            "repro.netd.x:helper",
        )

    def test_self_method_resolution(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class Server:
                    def handle(self):
                        pass

                    def serve(self):
                        self.handle()
                """
            }
        )
        assert project.resolve("repro.netd.x", "Server.serve", "self.handle") == (
            "repro.netd.x:Server.handle",
        )

    def test_self_attribute_typed_method_resolution(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class Journal:
                    def barrier(self):
                        pass

                class Server:
                    def __init__(self):
                        self._journal = Journal()

                    def flush(self):
                        self._journal.barrier()
                """
            }
        )
        assert project.resolve(
            "repro.netd.x", "Server.flush", "self._journal.barrier"
        ) == ("repro.netd.x:Journal.barrier",)

    def test_cross_module_import_resolution(self):
        project = build_test_project(
            {
                "repro.netd.util": """
                def slow_write():
                    pass
                """,
                "repro.netd.x": """
                from repro.netd.util import slow_write

                def caller():
                    slow_write()
                """,
            }
        )
        assert project.resolve("repro.netd.x", "caller", "slow_write") == (
            "repro.netd.util:slow_write",
        )

    def test_module_import_dotted_resolution(self):
        project = build_test_project(
            {
                "repro.netd.util": """
                def slow_write():
                    pass
                """,
                "repro.netd.x": """
                import repro.netd.util as util

                def caller():
                    util.slow_write()
                """,
            }
        )
        assert project.resolve("repro.netd.x", "caller", "util.slow_write") == (
            "repro.netd.util:slow_write",
        )

    def test_functools_partial_alias(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                import functools

                def base(a, b):
                    pass

                def caller():
                    bound = functools.partial(base, 1)
                    bound(2)
                """
            }
        )
        assert project.resolve("repro.netd.x", "caller", "bound") == (
            "repro.netd.x:base",
        )

    def test_plain_alias(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                def original():
                    pass

                def caller():
                    alias = original
                    alias()
                """
            }
        )
        assert project.resolve("repro.netd.x", "caller", "alias") == (
            "repro.netd.x:original",
        )

    def test_class_call_resolves_to_init(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class Worker:
                    def __init__(self):
                        pass

                def spawn():
                    Worker()
                """
            }
        )
        assert project.resolve("repro.netd.x", "spawn", "Worker") == (
            "repro.netd.x:Worker.__init__",
        )

    def test_unresolvable_stays_empty(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                def caller(conn):
                    conn.mystery()
                """
            }
        )
        assert project.resolve("repro.netd.x", "caller", "conn.mystery") == ()

    def test_decorated_function_still_resolves(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                import functools

                def deco(f):
                    return f

                @deco
                @functools.lru_cache
                def helper():
                    pass

                def caller():
                    helper()
                """
            }
        )
        assert project.resolve("repro.netd.x", "caller", "helper") == (
            "repro.netd.x:helper",
        )
        info = project.functions["repro.netd.x:helper"]
        assert "deco" in info.decorators
        assert "functools.lru_cache" in info.decorators


class TestFactPropagation:
    def _facts(self, sources, **config_kwargs):
        config = AuditConfig(**config_kwargs) if config_kwargs else AuditConfig()
        return build_test_project(sources, config=config)

    def test_blocking_fact_propagates_through_calls(self):
        project = self._facts(
            {
                "repro.netd.x": """
                import time

                def inner():
                    time.sleep(1)

                def middle():
                    inner()

                def outer():
                    middle()
                """
            }
        )
        for name in ("inner", "middle", "outer"):
            assert FACT_BLOCKING in project.facts[f"repro.netd.x:{name}"], name
        # Provenance names the original call.
        assert "time.sleep" in project.facts["repro.netd.x:outer"][FACT_BLOCKING]

    def test_to_thread_masks_blocking(self):
        project = self._facts(
            {
                "repro.netd.x": """
                import asyncio, time

                def inner():
                    time.sleep(1)

                async def outer():
                    await asyncio.to_thread(inner)
                """
            }
        )
        assert FACT_BLOCKING in project.facts["repro.netd.x:inner"]
        assert FACT_BLOCKING not in project.facts["repro.netd.x:outer"]

    def test_cycle_terminates_and_propagates(self):
        project = self._facts(
            {
                "repro.netd.x": """
                import time

                def ping(n):
                    if n:
                        pong(n - 1)

                def pong(n):
                    time.sleep(0.1)
                    ping(n)
                """
            }
        )
        assert FACT_BLOCKING in project.facts["repro.netd.x:ping"]
        assert FACT_BLOCKING in project.facts["repro.netd.x:pong"]

    def test_wallclock_fact(self):
        project = self._facts(
            {
                "repro.pisa.x": """
                import time

                def stamp():
                    return time.time()

                def build_message():
                    return stamp()
                """
            }
        )
        assert FACT_WALLCLOCK in project.facts["repro.pisa.x:stamp"]
        assert FACT_WALLCLOCK in project.facts["repro.pisa.x:build_message"]

    def test_monotonic_is_not_wallclock(self):
        project = self._facts(
            {
                "repro.pisa.x": """
                import time

                def measure():
                    return time.perf_counter() - time.monotonic()
                """
            }
        )
        assert FACT_WALLCLOCK not in project.facts["repro.pisa.x:measure"]

    def test_ambient_random_masked_in_sanctioned_module(self):
        project = self._facts(
            {
                "repro.crypto.rand": """
                import secrets

                def draw(bits):
                    return secrets.randbits(bits)
                """,
                "repro.pisa.x": """
                import os

                def nonce():
                    return os.urandom(16)
                """,
            }
        )
        assert FACT_AMBIENT_RANDOM not in project.facts["repro.crypto.rand:draw"]
        assert FACT_AMBIENT_RANDOM in project.facts["repro.pisa.x:nonce"]

    def test_secret_returners_transitive(self):
        project = self._facts(
            {
                "repro.pisa.x": """
                def secret_part(key):
                    return key.lam

                def wrapper(key):
                    return secret_part(key)

                def unrelated(key):
                    return key.bits
                """
            }
        )
        assert "repro.pisa.x:secret_part" in project.secret_returners
        assert "repro.pisa.x:wrapper" in project.secret_returners
        assert "repro.pisa.x:unrelated" not in project.secret_returners


class TestAwaitBoundaryTracking:
    def test_read_await_write_recorded(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class S:
                    async def update(self):
                        snapshot = self._count
                        await self._flush()
                        self._count = snapshot + 1
                """
            }
        )
        races = project.functions["repro.netd.x:S.update"].races
        assert [r.attr for r in races] == ["_count"]
        assert races[0].locked is False

    def test_lock_guard_marks_race_locked(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class S:
                    async def update(self):
                        async with self._lock:
                            snapshot = self._count
                            await self._flush()
                            self._count = snapshot + 1
                """
            }
        )
        races = project.functions["repro.netd.x:S.update"].races
        assert races and races[0].locked is True

    def test_no_await_no_race(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class S:
                    async def update(self):
                        snapshot = self._count
                        self._count = snapshot + 1
                """
            }
        )
        assert project.functions["repro.netd.x:S.update"].races == ()

    def test_augassign_with_await_in_value(self):
        project = build_test_project(
            {
                "repro.netd.x": """
                class S:
                    async def update(self):
                        self._total += await self._next()
                """
            }
        )
        races = project.functions["repro.netd.x:S.update"].races
        assert [r.attr for r in races] == ["_total"]
