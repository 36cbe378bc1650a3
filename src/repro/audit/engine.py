"""Analyzer engine: file collection, parsing, rule dispatch, waivers.

The engine turns each ``.py`` file into a :class:`ModuleUnit` (source +
AST + derived dotted module name), runs every registered rule over it,
and drops findings whose source line carries an inline waiver comment::

    if math.gcd(lam, n) != 1:  # audit-ok: SEC002 — keygen validity check

Waivers are per-line and per-rule; ``# audit-ok: SEC002,CRY002`` waives
both rules on that line.  A bare ``# audit-ok`` (no rule list) waives
every rule on the line — use sparingly.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.audit.findings import Finding
from repro.audit.registry import Rule, all_rules
from repro.errors import AuditError

__all__ = ["AuditConfig", "ModuleUnit", "AuditEngine", "module_name_for_path"]

_WAIVER_RE = re.compile(r"#\s*audit-ok(?::\s*(?P<rules>[A-Z0-9,\s]+?))?\s*(?:—|--|$)")

#: Identifiers that (exactly) name secret material anywhere in the codebase.
DEFAULT_SECRET_NAMES = frozenset(
    {"sk", "lam", "mu", "blinding", "alpha", "beta", "epsilon", "eta"}
)


@dataclass(frozen=True)
class AuditConfig:
    """Tunable knobs shared by all rules.

    The defaults encode this repository's layout; tests construct
    narrower configs to exercise individual rules in isolation.
    """

    #: Exact identifiers treated as taint sources.
    secret_names: frozenset[str] = DEFAULT_SECRET_NAMES
    #: Modules allowed to import :mod:`random`/:mod:`secrets`/``os.urandom``.
    randomness_allowed: frozenset[str] = frozenset({"repro.crypto.rand"})
    #: Modules allowed to import :mod:`hashlib` directly.
    hashing_allowed: frozenset[str] = frozenset({"repro.crypto.hashing"})
    #: Modules allowed a three-argument ``pow`` (CRY003): the modexp funnel.
    modexp_allowed: frozenset[str] = frozenset({"repro.crypto.backend"})
    #: Package prefixes where the taint rules (CRY002) apply.
    taint_scope: tuple[str, ...] = (
        "repro.crypto",
        "repro.pisa",
        "repro.service",
        "repro.cluster",
    )
    #: Package prefixes where secret-logging (SEC001) applies.
    logging_scope: tuple[str, ...] = ("repro.pisa", "repro.service", "repro.cluster")
    #: The module whose job *is* branching on decrypted signs (SEC002
    #: exempt): the one converter every variant's eq. (15) runs in.
    sign_extraction_modules: frozenset[str] = frozenset({"repro.pisa.stp_server"})
    #: Package prefixes where the transcript-order rule (ORD001) applies.
    ordering_scope: tuple[str, ...] = ("repro.pisa",)
    #: Modules subject to the shared-state race heuristic (SVC001).
    service_modules: frozenset[str] = frozenset(
        {
            "repro.crypto.parallel",
            "repro.service.broker",
            "repro.cluster.membership",
            "repro.cluster.replica",
            "repro.cluster.router",
            "repro.cluster.shard",
        }
    )
    #: Package prefixes where the ad-hoc-retry rule (RES001) applies.
    resilience_scope: tuple[str, ...] = (
        "repro.service",
        "repro.cluster",
        "repro.net",
        "repro.netd",
        "repro.resilience",
        "repro.pisa",
        "repro.store",
    )
    #: Modules exempt from RES001 (the policy engine is the one place a
    #: sleep-in-a-loop is intentional).
    resilience_exempt: frozenset[str] = frozenset({"repro.resilience.policy"})
    #: Package prefixes where the wire-primitive rule (NET001) applies.
    network_scope: tuple[str, ...] = ("repro",)
    #: Package prefixes that *own* wire formats and sockets (NET001 exempt).
    network_owned: tuple[str, ...] = ("repro.netd",)
    #: Single modules with a grandfathered byte-layout of their own.
    network_allowed: frozenset[str] = frozenset(
        {"repro.crypto.serialization", "repro.resilience.journal"}
    )
    #: Package prefixes where the telemetry-hygiene rule (TEL001) applies —
    #: everywhere spans/metrics are recorded, including the telemetry
    #: plane itself.
    telemetry_scope: tuple[str, ...] = ("repro",)
    #: Package prefixes covered by the determinism family (DET0xx): every
    #: module whose output can reach a protocol transcript.
    determinism_scope: tuple[str, ...] = (
        "repro.crypto",
        "repro.pisa",
        "repro.service",
        "repro.cluster",
        "repro.netd",
        "repro.resilience",
        "repro.store",
        "repro.sim",
    )
    #: Modules allowed to read civil time — the injected Clock seam
    #: implementations.  Everything else must take a ``clock=`` parameter.
    clock_seam_modules: frozenset[str] = frozenset()
    #: Package prefixes where float accumulation is a transcript hazard
    #: (DET005) — the protocol core, not analysis/reporting code.
    float_accum_scope: tuple[str, ...] = (
        "repro.pisa",
        "repro.crypto",
        "repro.cluster",
    )
    #: Package prefixes where the asyncio-hygiene family (ASY0xx) applies —
    #: the planes that run an event loop.
    asyncio_scope: tuple[str, ...] = (
        "repro.netd",
        "repro.service",
        "repro.store",
        "repro.sim",
    )
    #: Restrict the run to these rule ids (empty = all).
    select: frozenset[str] = frozenset()

    def in_scope(self, module: str, prefixes: tuple[str, ...]) -> bool:
        return any(module == p or module.startswith(p + ".") for p in prefixes)


@dataclass
class ModuleUnit:
    """One parsed source file handed to the rules."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: Sequence[str] = field(default_factory=tuple)

    @classmethod
    def from_source(cls, source: str, *, path: str = "<memory>", module: str = "") -> "ModuleUnit":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AuditError(f"cannot parse {path}: {exc}") from exc
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            lines=tuple(source.splitlines()),
        )

    def snippet(self, line: int) -> str:
        """Stripped source text of a 1-indexed line ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, node: ast.AST, rule: str, message: str, *, context: str = "<module>"
    ) -> Finding:
        """Build a Finding anchored at ``node``."""
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col,
            rule=rule,
            message=message,
            module=self.module,
            context=context,
            snippet=self.snippet(line),
        )

    def waived_rules(self, line: int) -> frozenset[str] | None:
        """Rules waived on ``line``; None = no waiver, empty set = waive all."""
        text = self.snippet(line)
        match = _WAIVER_RE.search(text)
        if match is None:
            return None
        rules = match.group("rules")
        if rules is None:
            return frozenset()
        return frozenset(r.strip() for r in rules.split(",") if r.strip())


def module_name_for_path(path: Path) -> str:
    """Derive a dotted module name from a file path.

    The segment after a ``src`` directory anchors the package root
    (``src/repro/pisa/blinding.py`` → ``repro.pisa.blinding``); without a
    ``src`` anchor, the path parts are joined as-is.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p not in (".", ""))


class AuditEngine:
    """Runs every registered rule over a set of files or units."""

    def __init__(self, config: AuditConfig | None = None) -> None:
        self.config = config or AuditConfig()

    def _active_rules(self) -> tuple[Rule, ...]:
        rules = all_rules()
        if self.config.select:
            rules = tuple(r for r in rules if r.rule_id in self.config.select)
        return rules

    def collect_files(self, paths: Iterable[str]) -> list[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.update(p for p in path.rglob("*.py"))
            elif path.suffix == ".py" and path.exists():
                files.add(path)
            elif not path.exists():
                raise AuditError(f"no such file or directory: {raw}")
        return sorted(files)

    def run_unit(self, unit: ModuleUnit, project=None) -> list[Finding]:
        """Run unit-level rules over one parsed module, applying waivers.

        Without a ``project``, taint rules degrade to their
        intra-function analysis and summary rules are skipped — this is
        the engine-v1 behavior that single-module tests rely on.
        """
        findings: list[Finding] = []
        for rule in self._active_rules():
            if rule.kind == "summary":
                continue
            if rule.kind == "taint":
                produced = rule.check(unit, self.config, project)
            else:
                produced = rule.check(unit, self.config)
            for finding in produced:
                waived = unit.waived_rules(finding.line)
                if waived is not None and (not waived or finding.rule in waived):
                    continue
                findings.append(finding)
        findings.sort()
        return findings

    def run_summary_rules(self, project) -> list[Finding]:
        """Run the interprocedural rules over a populated project."""
        findings: list[Finding] = []
        for rule in self._active_rules():
            if rule.kind != "summary":
                continue
            for finding in rule.check(project, self.config):
                if project.waived(finding.module, finding.line, finding.rule):
                    continue
                findings.append(finding)
        findings.sort()
        return findings

    def build_project(self, units: Iterable[ModuleUnit]):
        """Assemble summaries + call graph + fact lattice for ``units``."""
        from repro.audit.callgraph import Project, build_module_summary
        from repro.audit.taint import propagate_facts

        summaries = {
            unit.module: build_module_summary(unit, self.config.secret_names)
            for unit in units
        }
        project = Project(summaries)
        propagate_facts(project, self.config)
        return project

    def run(self, paths: Iterable[str]) -> list[Finding]:
        """Analyze all python files reachable from ``paths``."""
        units = [
            ModuleUnit.from_source(
                p.read_text(encoding="utf-8"),
                path=str(p),
                module=module_name_for_path(p),
            )
            for p in self.collect_files(paths)
        ]
        project = self.build_project(units)
        findings: list[Finding] = []
        for unit in units:
            findings.extend(self.run_unit(unit, project))
        findings.extend(self.run_summary_rules(project))
        findings.sort()
        return findings
