"""Entry point behind ``repro audit``.

Exit status: 0 when no *new* findings (relative to the baseline), 1 when
new findings exist, so CI can gate on it directly.  ``--update-baseline``
rewrites the baseline to exactly the current finding set (preserving
reasons for entries that survive) and always exits 0.

``--explain RULEID`` prints the rule card (rationale, bad/good example,
waiver syntax) and exits without analyzing anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.audit.baseline import Baseline, diff_against_baseline
from repro.audit.engine import AuditConfig, AuditEngine
from repro.audit.reporters import render_json, render_sarif, render_text

__all__ = ["run_audit", "explain_rule", "DEFAULT_BASELINE"]

DEFAULT_BASELINE = "audit-baseline.json"


def explain_rule(rule_id: str, *, stream=None) -> int:
    """Print the rule card for ``rule_id`` (``repro audit --explain``)."""
    from repro.audit.registry import get_rule
    from repro.errors import AuditError

    stream = stream if stream is not None else sys.stdout
    try:
        rule = get_rule(rule_id.upper())
    except AuditError as exc:
        from repro.audit.registry import rule_ids

        print(f"{exc}\nknown rules: {', '.join(rule_ids())}", file=stream)
        return 1
    print(rule.explain(), file=stream)
    return 0


def run_audit(
    paths: list[str],
    *,
    baseline_path: str = DEFAULT_BASELINE,
    update_baseline: bool = False,
    json_path: str | None = None,
    sarif_path: str | None = None,
    output_format: str = "text",
    select: list[str] | None = None,
    verbose: bool = False,
    stream=None,
) -> int:
    stream = stream if stream is not None else sys.stdout
    config = AuditConfig(select=frozenset(select or ()))
    findings = AuditEngine(config).run(paths)

    baseline = Baseline.load(baseline_path)
    new, grandfathered, stale = diff_against_baseline(findings, baseline)

    if update_baseline:
        refreshed = Baseline.from_findings(findings)
        # Keep hand-written reasons for entries that are still present.
        for fingerprint, entry in refreshed.entries.items():
            old = baseline.entries.get(fingerprint)
            if old and old.get("reason"):
                entry["reason"] = old["reason"]
        refreshed.save(baseline_path)
        print(
            f"baseline updated: {len(refreshed)} entr"
            f"{'y' if len(refreshed) == 1 else 'ies'} -> {baseline_path}",
            file=stream,
        )
        return 0

    if json_path is not None:
        Path(json_path).write_text(
            render_json(new, grandfathered, stale), encoding="utf-8"
        )
    if sarif_path is not None:
        Path(sarif_path).write_text(
            render_sarif(new, grandfathered, stale), encoding="utf-8"
        )

    if output_format == "json":
        print(render_json(new, grandfathered, stale), file=stream, end="")
    elif output_format == "sarif":
        print(render_sarif(new, grandfathered, stale), file=stream, end="")
    else:
        print(render_text(new, grandfathered, stale, verbose=verbose), file=stream)

    return 1 if new else 0
