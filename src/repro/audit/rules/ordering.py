"""ORD001 — transcript-order invariant inside protocol hot loops.

The PISA implementation guarantees byte-identical transcripts whether
``pow_many`` runs on the :class:`~repro.crypto.parallel.SerialExecutor`
or the :class:`~repro.crypto.parallel.ThreadExecutor`.  That only holds
if *all* randomness for a protocol step is drawn by the caller, in
protocol order, **before** the first executor dispatch.  An ``rng`` draw after ``pow_many`` means the draw's
position in the stream depends on batching, and deterministic replays
diverge between executors.

The rule is per-function and linear: within each function in the
``repro.pisa`` package, any RNG draw appearing (in source order) after
the first executor dispatch is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.audit.registry import register_rule
from repro.audit.rules.common import iter_function_defs, nodes_in_source_order

RULE_ID = "ORD001"

#: Method names that always denote an RNG draw.
_DRAW_ATTRS = {
    "randbits", "randbelow", "randrange", "rand_odd", "random_units", "random_r", "draw_eta",
}
#: Method names that are draws only when the receiver looks like an RNG.
_DRAW_ATTRS_ON_RNG = {"choice", "draw", "fork"}
#: Receiver identifiers (substring, lowercase) that mark an RNG-ish object.
_RNG_RECEIVERS = ("rng", "factory")

#: Method names that denote an executor dispatch.
_DISPATCH_ATTRS = {"pow_many"}
_DISPATCH_ATTRS_ON_EXECUTOR = {"submit", "map"}


def _receiver_name(func: ast.Attribute) -> str:
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return ""


def _is_draw(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr in _DRAW_ATTRS:
        return True
    if attr in _DRAW_ATTRS_ON_RNG:
        receiver = _receiver_name(node.func).lower()
        return any(tag in receiver for tag in _RNG_RECEIVERS)
    return False


def _is_dispatch(node: ast.Call) -> bool:
    if not isinstance(node.func, ast.Attribute):
        return False
    attr = node.func.attr
    if attr in _DISPATCH_ATTRS:
        return True
    if attr in _DISPATCH_ATTRS_ON_EXECUTOR:
        receiver = _receiver_name(node.func).lower()
        return "executor" in receiver or "pool" in receiver
    return False


@register_rule(RULE_ID, "draw all randomness before the first executor dispatch")
def check_transcript_order(unit, config) -> Iterator:
    if not config.in_scope(unit.module, config.ordering_scope):
        return
    for qualname, func in iter_function_defs(unit.tree):
        dispatched = False
        for node in nodes_in_source_order(func):
            if not isinstance(node, ast.Call):
                continue
            if _is_dispatch(node):
                dispatched = True
            elif dispatched and _is_draw(node):
                yield unit.finding(
                    node,
                    RULE_ID,
                    "RNG draw after executor dispatch — breaks the "
                    "transcript-order invariant (draw all randomness before "
                    "pow_many)",
                    context=qualname,
                )
