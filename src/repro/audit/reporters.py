"""Text, JSON, and SARIF reporters for analyzer runs."""

from __future__ import annotations

import json

from repro.audit.findings import Finding

__all__ = ["render_text", "render_json", "render_sarif"]


def render_text(
    new: list[Finding],
    grandfathered: list[Finding],
    stale: list[dict],
    *,
    verbose: bool = False,
) -> str:
    """Human-readable report; new findings first, summary line last."""
    lines: list[str] = []
    for finding in new:
        lines.append(finding.render())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if verbose and grandfathered:
        lines.append("")
        lines.append("grandfathered (baseline):")
        for finding in grandfathered:
            lines.append(f"  {finding.render()}")
    if stale:
        lines.append("")
        lines.append(
            f"{len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'} "
            "(violation no longer present; run with --update-baseline to prune):"
        )
        for entry in stale:
            lines.append(
                f"  {entry.get('rule', '?')} {entry.get('path', '?')} "
                f"[{entry.get('fingerprint', '?')}]"
            )
    lines.append("")
    lines.append(
        f"audit: {len(new)} new, {len(grandfathered)} grandfathered, "
        f"{len(stale)} stale baseline"
    )
    return "\n".join(lines)


def render_json(
    new: list[Finding],
    grandfathered: list[Finding],
    stale: list[dict],
) -> str:
    """Machine-readable report (uploaded as a CI artifact)."""
    payload = {
        "summary": {
            "new": len(new),
            "grandfathered": len(grandfathered),
            "stale_baseline": len(stale),
        },
        "new": [f.to_json_dict() for f in new],
        "grandfathered": [f.to_json_dict() for f in grandfathered],
        "stale_baseline": stale,
    }
    return json.dumps(payload, indent=2) + "\n"


_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
#: The SARIF ``tool.driver.version``.
ENGINE_VERSION = "2.0"


def _sarif_result(finding: Finding, level: str, baseline_state: str) -> dict:
    uri = finding.path.replace("\\", "/").lstrip("./")
    return {
        "ruleId": finding.rule,
        "level": level,
        "message": {"text": f"{finding.message} [{finding.context}]"},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": uri,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"reproAudit/v1": finding.fingerprint},
        "baselineState": baseline_state,
    }


def render_sarif(
    new: list[Finding],
    grandfathered: list[Finding],
    stale: list[dict],
) -> str:
    """SARIF 2.1.0 log for GitHub code scanning.

    New findings upload as errors; grandfathered ones ride along as
    notes marked ``unchanged`` so code scanning shows them without
    failing the check.  Every emitted ``ruleId`` gets a driver rule
    entry carrying the rule's summary and rationale.
    """
    from repro.audit.registry import all_rules

    emitted = {f.rule for f in new} | {f.rule for f in grandfathered}
    rules = [
        {
            "id": rule.rule_id,
            "name": rule.rule_id,
            "shortDescription": {"text": rule.summary},
            **(
                {"fullDescription": {"text": rule.rationale}}
                if rule.rationale
                else {}
            ),
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules()
        if rule.rule_id in emitted
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = [_sarif_result(f, "error", "new") for f in new] + [
        _sarif_result(f, "note", "unchanged") for f in grandfathered
    ]
    for result in results:
        result["ruleIndex"] = rule_index[result["ruleId"]]
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-audit",
                        "version": ENGINE_VERSION,
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
