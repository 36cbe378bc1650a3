"""Taint-driven rules: CRY002 (float math), SEC001 (leaky logging),
SEC002 (secret-dependent branching).

All three share the intra-function taint walk from
:mod:`repro.audit.taint`, seeded by the secret-identifier registry.

* **CRY002** — Paillier/Damgård–Jurik arithmetic is exact integer math;
  a float sneaking into a blinding factor or ciphertext silently
  truncates and breaks eq. (14)/(17) correctness.  True division ``/``,
  ``float(...)`` coercion, and mixing float literals into tainted
  expressions are all flagged; ``//`` floor division is fine.
* **SEC001** — logging or printing a secret-derived value leaks exactly
  the material the protocol exists to hide.  Applies in the protocol and
  service layers, where log lines leave the process.
* **SEC002** — branching on a secret-derived value creates a timing /
  control-flow side channel.  The sign converter's module
  (:mod:`repro.pisa.stp_server`) is the one place the protocol
  *requires* comparing a decrypted value, so it is exempt by
  configuration.

Engine v2 makes all three *interprocedural*: when a project call graph
is available, locals bound from calls that resolve to secret-returning
functions (``material = secret_part(key)``) are seeded into the taint
set, so a leak split across two functions is no longer invisible.
Without a project (unit tests, ``run_unit``) the rules degrade to the
intra-function analysis.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.audit.registry import register_rule
from repro.audit.taint import (
    expr_is_tainted,
    interprocedural_seeds,
    tainted_names,
)
from repro.audit.rules.common import iter_function_defs


def _tainted(expr: ast.AST, tainted: frozenset[str], config) -> bool:
    return expr_is_tainted(expr, tainted, config.secret_names)


def _taint_set(func, unit, config, project, qualname) -> frozenset[str]:
    """Intra-function taint plus cross-function secret-return seeds."""
    local = tainted_names(func, config.secret_names)
    seeds = interprocedural_seeds(func, project, unit.module, qualname)
    if not seeds:
        return local
    # Seeds are taint sources too: rerun the fixpoint with them treated
    # as secret names so second-order assignments propagate.
    widened = tainted_names(func, config.secret_names | seeds)
    return local | seeds | widened


def _has_float_constant(expr: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, float)
        for node in ast.walk(expr)
    )


@register_rule(
    "CRY002",
    "no float arithmetic or true division on secret-derived values",
    kind="taint",
    rationale=(
        "Paillier/Damgård–Jurik arithmetic is exact integer math mod n^(s+1); "
        "a float truncates silently and breaks the eq. (14)/(17) recovery "
        "identities, corrupting every transcript downstream."
    ),
    bad="noise = lam / 2            # true division on the Carmichael secret",
    good="noise = lam // 2           # floor division stays in the integers",
)
def check_float_taint(unit, config, project=None) -> Iterator:
    if not config.in_scope(unit.module, config.taint_scope):
        return
    for qualname, func in iter_function_defs(unit.tree):
        tainted = _taint_set(func, unit, config, project, qualname)
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                if _tainted(node.left, tainted, config) or _tainted(
                    node.right, tainted, config
                ):
                    yield unit.finding(
                        node,
                        "CRY002",
                        "true division '/' on a secret-derived value — modular "
                        "arithmetic needs '//' or modinv",
                        context=qualname,
                    )
            elif isinstance(node, ast.BinOp) and _has_float_constant(node):
                if _tainted(node, tainted, config):
                    yield unit.finding(
                        node,
                        "CRY002",
                        "float constant mixed into secret-derived arithmetic",
                        context=qualname,
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and any(_tainted(arg, tainted, config) for arg in node.args)
            ):
                yield unit.finding(
                    node,
                    "CRY002",
                    "float() coercion of a secret-derived value",
                    context=qualname,
                )


def _is_log_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "print"
    if isinstance(func, ast.Attribute):
        receiver = func.value
        receiver_name = ""
        if isinstance(receiver, ast.Name):
            receiver_name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            receiver_name = receiver.attr
        return "log" in receiver_name.lower() and func.attr in {
            "debug",
            "info",
            "warning",
            "error",
            "critical",
            "exception",
            "log",
        }
    return False


@register_rule(
    "SEC001",
    "no logging/printing/interpolation of secret-derived values",
    kind="taint",
    rationale=(
        "A log line or f-string carrying sk/λ/μ or a blinding factor leaks "
        "exactly the material PISA's privacy argument assumes stays inside "
        "the process; log aggregation makes the leak durable. The v2 engine "
        "follows secrets through helper-function returns, so splitting the "
        "leak across two functions no longer hides it."
    ),
    bad=(
        "material = secret_part(key)   # helper returns key.lam\n"
        "log.info(material)            # cross-function leak"
    ),
    good='log.info("keygen done", extra={"bits": key.bits})  # sizes only',
)
def check_secret_logging(unit, config, project=None) -> Iterator:
    if not config.in_scope(unit.module, config.logging_scope):
        return
    for qualname, func in iter_function_defs(unit.tree):
        tainted = _taint_set(func, unit, config, project, qualname)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _is_log_call(node):
                args = list(node.args) + [kw.value for kw in node.keywords]
                if any(_tainted(arg, tainted, config) for arg in args):
                    yield unit.finding(
                        node,
                        "SEC001",
                        "secret-derived value reaches a log/print sink",
                        context=qualname,
                    )
            elif isinstance(node, ast.JoinedStr):
                for part in node.values:
                    if isinstance(part, ast.FormattedValue) and _tainted(
                        part.value, tainted, config
                    ):
                        yield unit.finding(
                            node,
                            "SEC001",
                            "f-string interpolates a secret-derived value",
                            context=qualname,
                        )
                        break


@register_rule(
    "SEC002",
    "no branching/comparison on secret-derived values",
    kind="taint",
    rationale=(
        "Branching on secret-derived values creates control-flow timing "
        "side channels; only the sign converter's module is sanctioned "
        "to compare decrypted values, and it is exempt by configuration."
    ),
    bad="if lam > threshold:          # timing reveals the secret's magnitude",
    good="mask = int(gcd(lam, n) != 1)  # constant-shape arithmetic selection",
)
def check_secret_branching(unit, config, project=None) -> Iterator:
    if not config.in_scope(unit.module, config.taint_scope):
        return
    if unit.module in config.sign_extraction_modules:
        return  # sign extraction is the protocol's sanctioned secret compare
    for qualname, func in iter_function_defs(unit.tree):
        tainted = _taint_set(func, unit, config, project, qualname)
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                if any(_tainted(op, tainted, config) for op in operands):
                    yield unit.finding(
                        node,
                        "SEC002",
                        "comparison on a secret-derived value — potential "
                        "control-flow side channel",
                        context=qualname,
                    )
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                test = node.test
                if not isinstance(test, ast.Compare) and _tainted(
                    test, tainted, config
                ):
                    yield unit.finding(
                        test,
                        "SEC002",
                        "branch condition depends on a secret-derived value",
                        context=qualname,
                    )
