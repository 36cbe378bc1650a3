"""CRY003 — every modular exponentiation goes through the backend funnel.

:func:`repro.crypto.backend.powmod` is the one place that picks the
arithmetic (libgmp or builtin ``pow``) and the one place a modexp census
can count; a bare three-argument ``pow`` elsewhere is correct but ≈ 10×
slower than its neighbours and invisible to that census.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.audit.registry import register_rule
from repro.audit.rules.common import build_context_map

RULE_ID = "CRY003"


@register_rule(
    RULE_ID,
    "modular exponentiation must go through repro.crypto.backend.powmod",
    rationale="powmod() equals builtin pow() on every input and runs on libgmp when "
    "the host has it; a bare pow(b, e, m) bypasses the speed-up and the modexp census.",
    bad="inverse = pow(value, -1, modulus)",
    good="from repro.crypto.backend import powmod\ninverse = powmod(value, -1, modulus)",
)
def check_modexp(unit, config) -> Iterator:
    if unit.module in config.modexp_allowed:
        return
    contexts = build_context_map(unit.tree)
    for node in ast.walk(unit.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "pow"
            and (len(node.args) == 3 or any(kw.arg == "mod" for kw in node.keywords))
        ):
            yield unit.finding(
                node,
                RULE_ID,
                "three-argument pow() — use repro.crypto.backend.powmod",
                context=contexts.get(id(node), "<module>"),
            )
