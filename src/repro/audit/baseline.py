"""Baseline file handling — grandfathered findings.

The baseline is a checked-in JSON file mapping finding *fingerprints*
(see :class:`repro.audit.findings.Finding`) to a human-readable reason.
``repro audit`` exits non-zero only for findings whose fingerprint is
absent from the baseline, so existing accepted violations don't block CI
while every new one does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.audit.findings import Finding
from repro.errors import AuditError

__all__ = ["Baseline", "diff_against_baseline"]

#: The on-disk version; a file of any other version is refused.
_VERSION = 2


@dataclass
class Baseline:
    """Set of grandfathered finding fingerprints with reasons."""

    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise AuditError(f"cannot read baseline {path}: {exc}") from exc
        if payload.get("version") != _VERSION:
            raise AuditError(
                f"unsupported baseline version in {path}: {payload.get('version')!r}"
            )
        entries = {}
        for item in payload.get("findings", []):
            fingerprint = item.get("fingerprint")
            if not fingerprint:
                raise AuditError(f"baseline entry missing fingerprint in {path}")
            entries[fingerprint] = item
        return cls(entries=entries)

    @classmethod
    def from_findings(
        cls, findings: list[Finding], reason: str = "grandfathered"
    ) -> "Baseline":
        entries = {}
        for finding in findings:
            entries[finding.fingerprint] = {
                "fingerprint": finding.fingerprint,
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "context": finding.context,
                "snippet": finding.snippet,
                "reason": reason,
            }
        return cls(entries=entries)

    def save(self, path: str | Path) -> None:
        payload = {
            "version": _VERSION,
            "findings": [self.entries[k] for k in sorted(self.entries)],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def diff_against_baseline(
    findings: list[Finding], baseline: Baseline
) -> tuple[list[Finding], list[Finding], list[dict]]:
    """Split ``findings`` into (new, grandfathered) plus stale entries.

    Stale entries are baseline records whose violation no longer exists —
    they should be pruned with ``--update-baseline``.
    """
    new = [f for f in findings if f not in baseline]
    grandfathered = [f for f in findings if f in baseline]
    seen = {f.fingerprint for f in findings}
    stale = [
        entry for key, entry in sorted(baseline.entries.items()) if key not in seen
    ]
    return new, grandfathered, stale
