"""Rule modules — importing this package registers every built-in rule."""

from __future__ import annotations

from repro.audit.rules import (  # noqa: F401
    concurrency,
    determinism,
    modexp,
    net,
    ordering,
    randomness,
    resilience,
    service,
    taint_rules,
    telemetry,
)

__all__ = [
    "concurrency",
    "determinism",
    "modexp",
    "net",
    "ordering",
    "randomness",
    "resilience",
    "service",
    "taint_rules",
    "telemetry",
]
