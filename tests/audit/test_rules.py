"""Positive and negative fixtures for every analyzer rule."""

from tests.audit.helpers import run_rules, rules_hit
from repro.audit.engine import AuditConfig


class TestCry001Randomness:
    def test_flags_import_random(self):
        assert "CRY001" in rules_hit(
            "import random\n", module="repro.pisa.blinding", select={"CRY001"}
        )

    def test_flags_from_secrets_import(self):
        assert "CRY001" in rules_hit(
            "from secrets import randbits\n",
            module="repro.pisa.blinding",
            select={"CRY001"},
        )

    def test_flags_os_urandom(self):
        assert "CRY001" in rules_hit(
            "import os\nnonce = os.urandom(16)\n",
            module="repro.service.broker",
            select={"CRY001"},
        )

    def test_flags_hashlib_outside_hashing_module(self):
        assert "CRY001" in rules_hit(
            "import hashlib\n", module="repro.pisa.license", select={"CRY001"}
        )

    def test_allows_secrets_inside_rand_module(self):
        assert not rules_hit(
            "import secrets\nvalue = secrets.randbits(8)\n",
            module="repro.crypto.rand",
            select={"CRY001"},
        )

    def test_allows_hashlib_inside_hashing_module(self):
        assert not rules_hit(
            "import hashlib\n", module="repro.crypto.hashing", select={"CRY001"}
        )

    def test_allows_randomsource_usage(self):
        source = """
            from repro.crypto.rand import default_rng

            def draw(rng=None):
                return default_rng(rng).randbits(128)
        """
        assert not rules_hit(source, module="repro.pisa.blinding", select={"CRY001"})


class TestCry003ModexpFunnel:
    def test_flags_three_argument_pow(self):
        source = """
            def obfuscator(r, n, n_sq):
                return pow(r, n, n_sq)
        """
        assert "CRY003" in rules_hit(
            source, module="repro.crypto.paillier", select={"CRY003"}
        )

    def test_flags_modular_inverse_and_keyword_modulus(self):
        findings = run_rules(
            "inverse = pow(value, -1, modulus)\npower = pow(2, 10, mod=97)\n",
            module="repro.sim.traffic",
            select={"CRY003"},
        )
        assert [(f.rule, f.line) for f in findings] == [("CRY003", 1), ("CRY003", 2)]

    def test_allows_the_funnel_and_two_argument_pow(self):
        source = """
            from repro.crypto.backend import powmod

            def obfuscator(r, n, n_sq):
                return powmod(r, n, n_sq) + pow(2, 10) + math.pow(2.0, 0.5)
        """
        assert not rules_hit(source, module="repro.crypto.paillier", select={"CRY003"})

    def test_allows_builtin_pow_inside_the_backend(self):
        assert not rules_hit(
            "fallback = pow(3, 5, 7)\n", module="repro.crypto.backend", select={"CRY003"}
        )


class TestCry002FloatTaint:
    def test_flags_true_division_of_secret(self):
        source = """
            def scale(alpha, total):
                return alpha / total
        """
        assert "CRY002" in rules_hit(
            source, module="repro.pisa.blinding", select={"CRY002"}
        )

    def test_flags_float_coercion_through_assignment(self):
        source = """
            def leak(key):
                lam = key.lam
                shadow = lam + 1
                return float(shadow)
        """
        assert "CRY002" in rules_hit(
            source, module="repro.crypto.paillier", select={"CRY002"}
        )

    def test_flags_float_constant_mixing(self):
        source = """
            def fudge(beta):
                return beta * 0.5
        """
        assert "CRY002" in rules_hit(
            source, module="repro.pisa.blinding", select={"CRY002"}
        )

    def test_allows_floor_division(self):
        source = """
            def halve(alpha):
                return alpha // 2
        """
        assert not rules_hit(source, module="repro.pisa.blinding", select={"CRY002"})

    def test_allows_float_math_on_public_values(self):
        source = """
            def latency(total_bytes, rate):
                return total_bytes / rate
        """
        assert not rules_hit(source, module="repro.pisa.protocol", select={"CRY002"})

    def test_exact_name_match_only(self):
        # ``alpha_bits`` is a public sizing parameter, not the secret ``alpha``.
        source = """
            def width(alpha_bits):
                return alpha_bits / 8
        """
        assert not rules_hit(source, module="repro.pisa.blinding", select={"CRY002"})

    def test_out_of_scope_module_ignored(self):
        source = """
            def scale(alpha):
                return alpha / 3
        """
        assert not rules_hit(source, module="repro.watch.scenario", select={"CRY002"})


class TestSec001SecretLogging:
    def test_flags_print_of_secret(self):
        source = """
            def debug(sk):
                print(sk)
        """
        assert "SEC001" in rules_hit(
            source, module="repro.pisa.stp_server", select={"SEC001"}
        )

    def test_flags_logger_call_with_derived_value(self):
        source = """
            def record(logger, keypair):
                mu = keypair.mu
                masked = mu % 1000
                logger.info("residue %s", masked)
        """
        assert "SEC001" in rules_hit(
            source, module="repro.service.broker", select={"SEC001"}
        )

    def test_flags_fstring_interpolation(self):
        source = """
            def describe(blinding):
                return f"factor={blinding}"
        """
        assert "SEC001" in rules_hit(
            source, module="repro.pisa.sdc_server", select={"SEC001"}
        )

    def test_allows_logging_public_metadata(self):
        source = """
            def record(logger, su_id, size_bytes):
                logger.info("request from %s: %d bytes", su_id, size_bytes)
        """
        assert not rules_hit(source, module="repro.service.broker", select={"SEC001"})

    def test_crypto_layer_out_of_logging_scope(self):
        source = """
            def debug(sk):
                print(sk)
        """
        assert not rules_hit(source, module="repro.crypto.paillier", select={"SEC001"})


class TestSec002SecretBranching:
    def test_flags_comparison_on_secret(self):
        source = """
            def check(epsilon):
                if epsilon > 0:
                    return 1
                return -1
        """
        assert "SEC002" in rules_hit(
            source, module="repro.pisa.sdc_server", select={"SEC002"}
        )

    def test_flags_branch_on_derived_flag(self):
        source = """
            def gate(sk):
                unsafe = bool(sk)
                if unsafe:
                    return 1
                return 0
        """
        assert "SEC002" in rules_hit(
            source, module="repro.crypto.paillier", select={"SEC002"}
        )

    def test_sign_extraction_module_exempt(self):
        source = """
            def extract(sk, ct):
                value = sk.decrypt(ct)
                return 1 if value > 0 else -1
        """
        assert not rules_hit(
            source, module="repro.pisa.stp_server", select={"SEC002"}
        )

    def test_only_the_converter_module_is_exempt(self):
        """The packed STP's slot compare, as it stood before the compare
        moved into the one converter."""
        source = """
            def convert(sk, layout, chunk):
                slots = layout.unpack(sk.raw_decrypt(chunk))
                return [2 if slot - layout.half_slot > 0 else 0 for slot in slots]
        """
        assert AuditConfig().sign_extraction_modules == {"repro.pisa.stp_server"}
        assert "SEC002" in rules_hit(
            source, module="repro.pisa.packed", select={"SEC002"}
        )
        assert not rules_hit(
            source, module="repro.pisa.stp_server", select={"SEC002"}
        )

    def test_allows_public_comparisons(self):
        source = """
            def admit(pending, limit):
                if pending > limit:
                    return False
                return True
        """
        assert not rules_hit(source, module="repro.service.broker", select={"SEC002"})

    def test_inline_waiver_suppresses(self):
        source = """
            import math

            def validate(lam, n):
                if math.gcd(lam, n) != 1:  # audit-ok: SEC002
                    raise ValueError("bad key")
        """
        assert not rules_hit(source, module="repro.crypto.paillier", select={"SEC002"})


class TestOrd001TranscriptOrder:
    def test_flags_draw_after_dispatch(self):
        source = """
            def round_trip(rng, executor, jobs):
                results = executor.pow_many(jobs)
                noise = rng.randbits(64)
                return results, noise
        """
        assert "ORD001" in rules_hit(
            source, module="repro.pisa.sdc_server", select={"ORD001"}
        )

    def test_flags_factory_draw_after_dispatch(self):
        source = """
            def round_trip(factory, executor, jobs):
                results = executor.pow_many(jobs)
                eps = factory.draw()
                return results, eps
        """
        assert "ORD001" in rules_hit(
            source, module="repro.pisa.packed", select={"ORD001"}
        )

    def test_allows_draws_before_dispatch(self):
        source = """
            def round_trip(rng, executor, cells):
                draws = [rng.randbits(64) for _ in cells]
                jobs = [(d, 2, 3) for d in draws]
                return executor.pow_many(jobs)
        """
        assert not rules_hit(source, module="repro.pisa.sdc_server", select={"ORD001"})

    def test_out_of_scope_package_ignored(self):
        source = """
            def round_trip(rng, executor, jobs):
                results = executor.pow_many(jobs)
                return results, rng.randbits(8)
        """
        assert not rules_hit(source, module="repro.crypto.parallel", select={"ORD001"})

    def test_functions_are_independent(self):
        # A dispatch in one function must not poison draws in another.
        source = """
            def dispatch(executor, jobs):
                return executor.pow_many(jobs)

            def fresh(rng):
                return rng.randbits(64)
        """
        assert not rules_hit(source, module="repro.pisa.sdc_server", select={"ORD001"})


class TestSvc001SharedState:
    def test_flags_augassign_in_async_def(self):
        source = """
            class Broker:
                async def submit(self):
                    self.pending += 1
        """
        assert "SVC001" in rules_hit(
            source, module="repro.service.broker", select={"SVC001"}
        )

    def test_flags_sync_method_of_worker_class(self):
        source = """
            from concurrent.futures import ThreadPoolExecutor

            class Pool:
                def start(self):
                    self.pool = ThreadPoolExecutor()

                def run(self, jobs):
                    self.jobs += len(jobs)
        """
        assert "SVC001" in rules_hit(
            source, module="repro.crypto.parallel", select={"SVC001"}
        )

    def test_flags_mutable_class_default(self):
        source = """
            class Broker:
                listeners = []
        """
        assert "SVC001" in rules_hit(
            source, module="repro.service.broker", select={"SVC001"}
        )

    def test_lock_guard_suppresses(self):
        source = """
            from concurrent.futures import ThreadPoolExecutor

            class Pool:
                def start(self):
                    self.pool = ThreadPoolExecutor()

                def run(self, jobs):
                    with self._stats_lock:
                        self.jobs += len(jobs)
        """
        assert not rules_hit(source, module="repro.crypto.parallel", select={"SVC001"})

    def test_plain_sync_class_untouched(self):
        source = """
            class Tally:
                def bump(self):
                    self.count += 1
        """
        assert not rules_hit(source, module="repro.service.broker", select={"SVC001"})

    def test_local_variables_untouched(self):
        source = """
            class Broker:
                async def submit(self, items):
                    total = 0
                    for item in items:
                        total += item
                    return total
        """
        assert not rules_hit(source, module="repro.service.broker", select={"SVC001"})

    def test_out_of_scope_module_ignored(self):
        source = """
            class Broker:
                async def submit(self):
                    self.pending += 1
        """
        assert not rules_hit(source, module="repro.pisa.protocol", select={"SVC001"})


class TestFindingMetadata:
    def test_finding_carries_context_and_snippet(self):
        source = """
            class Broker:
                async def submit(self):
                    self.pending += 1
        """
        findings = run_rules(source, module="repro.service.broker", select={"SVC001"})
        assert len(findings) == 1
        finding = findings[0]
        assert finding.context == "Broker.submit"
        assert finding.snippet == "self.pending += 1"
        assert finding.module == "repro.service.broker"

    def test_fingerprint_survives_line_shift(self):
        base = """
            class Broker:
                async def submit(self):
                    self.pending += 1
        """
        shifted = """
            PADDING = 1


            class Broker:
                async def submit(self):
                    self.pending += 1
        """
        one = run_rules(base, module="repro.service.broker", select={"SVC001"})
        two = run_rules(shifted, module="repro.service.broker", select={"SVC001"})
        assert one[0].fingerprint == two[0].fingerprint
        assert one[0].line != two[0].line

    def test_fingerprint_changes_with_snippet(self):
        a = run_rules(
            "class B:\n    async def f(self):\n        self.x += 1\n",
            module="repro.service.broker",
            select={"SVC001"},
        )
        b = run_rules(
            "class B:\n    async def f(self):\n        self.x += 2\n",
            module="repro.service.broker",
            select={"SVC001"},
        )
        assert a[0].fingerprint != b[0].fingerprint


class TestRes001AdhocResilience:
    def test_flags_bare_except(self):
        source = """
            def fetch():
                try:
                    return 1
                except:
                    return None
        """
        assert "RES001" in rules_hit(
            source, module="repro.service.broker", select={"RES001"}
        )

    def test_flags_sleep_in_while_loop(self):
        source = """
            import time

            def poll():
                while True:
                    time.sleep(0.1)
        """
        assert "RES001" in rules_hit(
            source, module="repro.cluster.router", select={"RES001"}
        )

    def test_flags_asyncio_sleep_in_for_loop(self):
        source = """
            import asyncio

            async def drain(items):
                for _ in items:
                    await asyncio.sleep(0.5)
        """
        assert "RES001" in rules_hit(
            source, module="repro.service.loadtest", select={"RES001"}
        )

    def test_allows_sleep_outside_loops(self):
        source = """
            import time

            def settle():
                time.sleep(0.1)
        """
        assert not rules_hit(
            source, module="repro.service.broker", select={"RES001"}
        )

    def test_policy_engine_is_exempt(self):
        source = """
            import time

            def run():
                while True:
                    time.sleep(0.01)
        """
        assert not rules_hit(
            source, module="repro.resilience.policy", select={"RES001"}
        )

    def test_out_of_scope_module_ignored(self):
        source = """
            def fetch():
                try:
                    return 1
                except:
                    return None
        """
        assert not rules_hit(
            source, module="repro.analysis.report", select={"RES001"}
        )

    def test_typed_except_is_fine(self):
        source = """
            def fetch():
                try:
                    return 1
                except ValueError:
                    return None
        """
        assert not rules_hit(
            source, module="repro.service.broker", select={"RES001"}
        )

    def test_nested_def_resets_loop_context(self):
        source = """
            import time

            def build(items):
                for item in items:
                    def pace():
                        time.sleep(0.1)  # not itself inside a loop
        """
        assert not rules_hit(
            source, module="repro.service.broker", select={"RES001"}
        )

    def test_waiver_comment_suppresses(self):
        source = """
            import asyncio

            async def generate(gaps):
                for gap in gaps:
                    await asyncio.sleep(gap)  # audit-ok: RES001 — pacing
        """
        assert not rules_hit(
            source, module="repro.service.loadtest", select={"RES001"}
        )


class TestTel001TelemetryHygiene:
    def test_flags_secret_attribute_key(self):
        assert "TEL001" in rules_hit(
            'span.set_attribute("sk", value)\n',
            module="repro.service.broker",
            select={"TEL001"},
        )

    def test_flags_secret_in_attribute_value(self):
        assert "TEL001" in rules_hit(
            'span.set_attribute("key_id", keypair.lam)\n',
            module="repro.service.broker",
            select={"TEL001"},
        )

    def test_flags_secret_label_keyword(self):
        assert "TEL001" in rules_hit(
            'metrics.counter("ops", alpha="x").inc()\n',
            module="repro.cluster.router",
            select={"TEL001"},
        )

    def test_flags_secret_in_label_value(self):
        assert "TEL001" in rules_hit(
            'tracer.start_span("round", key=blinding)\n',
            module="repro.resilience.chaos",
            select={"TEL001"},
        )

    def test_flags_secret_as_metric_value(self):
        assert "TEL001" in rules_hit(
            'metrics.gauge("level").set(eta)\n',
            module="repro.service.broker",
            select={"TEL001"},
        )

    def test_allows_public_attributes_and_labels(self):
        assert "TEL001" not in rules_hit(
            'span.set_attribute("shard", shard_id)\n'
            'metrics.counter("ops", reason="queue_full").inc()\n'
            'metrics.histogram("lat").observe(elapsed)\n',
            module="repro.service.broker",
            select={"TEL001"},
        )

    def test_exact_name_match_only(self):
        # ``skew``/``alphabet`` contain secret names as substrings but
        # are public identifiers.
        assert "TEL001" not in rules_hit(
            'span.set_attribute("clock", skew)\n'
            'metrics.counter("ops", kind=alphabet).inc()\n',
            module="repro.service.broker",
            select={"TEL001"},
        )

    def test_out_of_scope_module_ignored(self):
        findings = run_rules(
            'span.set_attribute("sk", value)\n',
            module="sandbox.notebook",
            select={"TEL001"},
        )
        assert not findings


class TestNet001WireFormatOwnership:
    def test_flags_socket_outside_netd(self):
        assert "NET001" in rules_hit(
            "import socket\n", module="repro.service.broker", select={"NET001"}
        )

    def test_flags_pickle_and_struct_from_imports(self):
        hits = rules_hit(
            "from struct import pack\nfrom pickle import loads\n",
            module="repro.pisa.sdc_server",
            select={"NET001"},
        )
        assert "NET001" in hits

    def test_netd_owns_its_primitives(self):
        assert not rules_hit(
            "import socket\nimport struct\n",
            module="repro.netd.framing",
            select={"NET001"},
        )

    def test_serialization_owner_allowlisted(self):
        assert not rules_hit(
            "import struct\n",
            module="repro.crypto.serialization",
            select={"NET001"},
        )

    def test_dotted_submodule_import_flagged(self):
        assert "NET001" in rules_hit(
            "import socket.timeout\n",
            module="repro.cluster.router",
            select={"NET001"},
        )

    def test_relative_import_not_confused_with_primitive(self):
        # ``from .struct import x`` is a package-local module, not stdlib.
        assert not rules_hit(
            "from .struct import layout\n",
            module="repro.watch.scenario",
            select={"NET001"},
        )

    def test_out_of_scope_module_ignored(self):
        assert not rules_hit(
            "import pickle\n", module="sandbox.notebook", select={"NET001"}
        )

    def test_waiver_comment_suppresses(self):
        assert not rules_hit(
            "import struct  # audit-ok: NET001 — scratch layout in a tool\n",
            module="repro.service.broker",
            select={"NET001"},
        )
