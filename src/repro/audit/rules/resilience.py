"""RES001 — ad-hoc retry loops and bare exception swallowing.

All retry behaviour in the runtime layers is supposed to flow through
:func:`repro.resilience.policy.run_with_policy`, which provides jittered
backoff, bounded attempts, and circuit breaking.  A hand-rolled
``while: ... sleep(...)`` loop or a bare ``except:`` handler bypasses all
of that: the loop retries forever with no bound, and the bare handler
swallows ``KeyboardInterrupt``/``SystemExit`` along with the error it
meant to catch.  The rule flags:

* bare ``except:`` handlers (no exception type) anywhere in scope;
* calls to ``time.sleep``/``asyncio.sleep`` (or a bare ``sleep``)
  lexically inside a ``while``/``for`` loop — the signature shape of a
  homemade retry loop.

:mod:`repro.resilience.policy` itself is exempt — it is the one place a
sleep-in-a-loop is the point.  Legitimate pacing sleeps (e.g. open-loop
load generators) carry an inline ``# audit-ok: RES001`` waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.audit.registry import register_rule

RULE_ID = "RES001"

_SLEEP_MODULES = ("time", "asyncio")


def _is_sleep_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep":
        return (
            isinstance(func.value, ast.Name) and func.value.id in _SLEEP_MODULES
        )
    if isinstance(func, ast.Name) and func.id == "sleep":
        return True
    return False


def _scan(unit, node: ast.AST, loop_depth: int, qualname: str) -> Iterator:
    for child in ast.iter_child_nodes(node):
        child_qualname = qualname
        child_depth = loop_depth
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested def starts a fresh lexical context: a sleep inside
            # a callback defined in a loop body does not itself loop.
            child_qualname = (
                child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            )
            child_depth = 0
        elif isinstance(child, (ast.While, ast.For, ast.AsyncFor)):
            child_depth = loop_depth + 1
        if isinstance(child, ast.ExceptHandler) and child.type is None:
            yield unit.finding(
                child,
                RULE_ID,
                "bare 'except:' swallows BaseException — catch a typed "
                "repro.errors exception instead",
                context=qualname,
            )
        if isinstance(child, ast.Call) and _is_sleep_call(child) and loop_depth > 0:
            yield unit.finding(
                child,
                RULE_ID,
                "sleep inside a loop is an ad-hoc retry — use "
                "repro.resilience.policy.run_with_policy",
                context=qualname,
            )
        yield from _scan(unit, child, child_depth, child_qualname)


@register_rule(RULE_ID, "ad-hoc retry loop or bare except outside the policy engine")
def check_adhoc_resilience(unit, config) -> Iterator:
    if not config.in_scope(unit.module, config.resilience_scope):
        return
    if unit.module in config.resilience_exempt:
        return
    yield from _scan(unit, unit.tree, 0, "<module>")
