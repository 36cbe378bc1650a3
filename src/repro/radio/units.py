"""Power and ratio unit conversions.

The WATCH equations mix linear power (mW) with logarithmic quantities
(dB, dBm).  Getting the conversions wrong flips interference decisions,
so they live in one audited module:

* dBm ↔ mW:      ``P_dBm = 10·log10(P_mW)``
* dB  ↔ linear:  ``X_dB  = 10·log10(x)``
"""

from __future__ import annotations

import math

__all__ = [
    "dbm_to_mw",
    "mw_to_dbm",
    "db_to_linear",
    "linear_to_db",
]


def dbm_to_mw(power_dbm: float) -> float:
    """Convert a power in dBm to milliwatts."""
    return 10.0 ** (power_dbm / 10.0)


def mw_to_dbm(power_mw: float) -> float:
    """Convert a power in milliwatts to dBm; requires ``power_mw > 0``."""
    if power_mw <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(power_mw)


def db_to_linear(value_db: float) -> float:
    """Convert a ratio in dB to its linear value."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a positive linear ratio to dB."""
    if value <= 0:
        raise ValueError("ratio must be positive to express in dB")
    return 10.0 * math.log10(value)

