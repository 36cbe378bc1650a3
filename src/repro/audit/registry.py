"""Pluggable rule registry for the static analyzer.

Rules self-register at import time with the :func:`register_rule`
decorator.  Engine v2 distinguishes three rule *kinds* by the shape of
their check callable:

``syntactic``
    ``check(unit, config) -> Iterable[Finding]`` — purely local to one
    parsed module.

``taint``
    ``check(unit, config, project=None) -> Iterable[Finding]`` — runs
    over one module's AST but may consult the project call graph for
    cross-function taint seeds.  Called with ``project=None`` it must
    degrade to the intra-function analysis (unit tests rely on this).

``summary``
    ``check(project, config) -> Iterable[Finding]`` — interprocedural,
    operating on :class:`repro.audit.callgraph.ModuleSummary` data
    only, never ASTs.

Every rule also carries explanation metadata (``rationale``, ``bad``,
``good``) surfaced by ``repro audit --explain RULEID``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import AuditError

__all__ = ["Rule", "register_rule", "all_rules", "get_rule", "rule_ids"]

_KINDS = ("syntactic", "taint", "summary")


@dataclass(frozen=True)
class Rule:
    """A registered analyzer rule."""

    rule_id: str
    summary: str
    check: Callable
    kind: str = "syntactic"
    rationale: str = ""
    bad: str = ""
    good: str = ""

    def __call__(self, unit, config) -> Iterable:
        # Back-compat entry point used by unit-level callers; taint rules
        # degrade to their intra-function analysis without a project.
        if self.kind == "taint":
            return self.check(unit, config, None)
        if self.kind == "summary":
            return ()
        return self.check(unit, config)

    def explain(self) -> str:
        """Human-readable rule card for ``repro audit --explain``."""
        lines = [f"{self.rule_id} — {self.summary}", ""]
        if self.rationale:
            lines += ["Why it matters:", f"  {self.rationale}", ""]
        if self.bad:
            lines += ["Flagged:"]
            lines += [f"    {ln}" for ln in self.bad.strip("\n").splitlines()]
            lines += [""]
        if self.good:
            lines += ["Preferred:"]
            lines += [f"    {ln}" for ln in self.good.strip("\n").splitlines()]
            lines += [""]
        lines += [
            "Waiving (only with a reviewed justification):",
            f"    suspect_line()  # audit-ok: {self.rule_id} — <reason>",
            "or grandfather it into the baseline:",
            "    repro audit src/repro --update-baseline",
        ]
        return "\n".join(lines)


_REGISTRY: dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    summary: str,
    *,
    kind: str = "syntactic",
    rationale: str = "",
    bad: str = "",
    good: str = "",
):
    """Class/function decorator registering an analyzer rule.

    The decorated callable keeps working as-is; registration is a side
    effect.  Registering the same id twice is an error — it almost always
    means a copy/paste slip in a new rule module.
    """
    if kind not in _KINDS:
        raise AuditError(f"unknown rule kind {kind!r} for {rule_id}")

    def decorator(check: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise AuditError(f"duplicate audit rule id: {rule_id}")
        _REGISTRY[rule_id] = Rule(
            rule_id=rule_id,
            summary=summary,
            check=check,
            kind=kind,
            rationale=rationale,
            bad=bad,
            good=good,
        )
        return check

    return decorator


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id for deterministic output."""
    import repro.audit.rules  # noqa: F401  — triggers registration

    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    import repro.audit.rules  # noqa: F401

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise AuditError(f"unknown audit rule: {rule_id}") from None


def rule_ids() -> tuple[str, ...]:
    import repro.audit.rules  # noqa: F401

    return tuple(sorted(_REGISTRY))
