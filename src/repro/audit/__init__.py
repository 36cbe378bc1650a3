"""repro.audit — crypto-hygiene static analyzer + runtime protocol sanitizer.

Two halves, one purpose: keep the implementation honest about the
paper's security claims.

* The **static analyzer** (``repro audit`` on the CLI) is a
  flow-sensitive *interprocedural* engine: it builds a project-wide
  symbol table and call graph (:mod:`repro.audit.callgraph`) and
  propagates secret/blocking/nondeterminism facts across function
  boundaries to a fixpoint, so a coroutine calling a helper that calls
  ``os.replace`` is flagged with its provenance chain.  Rule families:
  crypto hygiene (CRY0xx), secret confinement (SEC0xx, taint crosses
  call boundaries), transcript ordering (ORD001), service-state races
  (SVC001), resilience/telemetry/transport ownership (RES001, TEL001,
  NET001), determinism proving (DET0xx), and async-race detection for
  the socket plane (ASY0xx).  Findings export as
  SARIF 2.1.0, ``--explain RULEID`` prints any rule's card, and
  accepted pre-existing findings live in a checked-in baseline
  (``audit-baseline.json``); only *new* findings fail the run.
* The **runtime sanitizer** (:class:`repro.audit.runtime.SanitizingTransport`)
  wraps the message transport during tests and asserts per-message
  invariants: ciphertext well-formedness, STP envelopes carrying only
  group-key blinded values, and re-randomization freshness per epoch.
"""

from __future__ import annotations

from repro.audit.baseline import Baseline, diff_against_baseline
from repro.audit.cli import DEFAULT_BASELINE, run_audit
from repro.audit.engine import AuditConfig, AuditEngine, ModuleUnit, module_name_for_path
from repro.audit.findings import Finding
from repro.audit.registry import Rule, all_rules, get_rule, register_rule, rule_ids
from repro.audit.runtime import SanitizingTransport, iter_ciphertexts

__all__ = [
    "AuditConfig",
    "AuditEngine",
    "Baseline",
    "DEFAULT_BASELINE",
    "Finding",
    "ModuleUnit",
    "Rule",
    "SanitizingTransport",
    "all_rules",
    "diff_against_baseline",
    "get_rule",
    "iter_ciphertexts",
    "module_name_for_path",
    "register_rule",
    "rule_ids",
    "run_audit",
]
