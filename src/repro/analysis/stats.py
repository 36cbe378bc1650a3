"""Small statistics helpers for the evaluation harness.

Benchmarks assert *shapes* — linearity of the privacy trade-off — and
need one classical tool: a least-squares fit with its goodness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["LinearFit", "linear_fit"]


@dataclass(frozen=True)
class LinearFit:
    """``y ≈ slope·x + intercept`` with the usual goodness measure."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least squares for one predictor.

    Raises on degenerate input (fewer than two points, or constant x).
    A constant ``y`` fits perfectly (R² = 1) with zero slope.
    """
    if len(x) != len(y):
        raise ConfigurationError("x and y lengths differ")
    if len(x) < 2:
        raise ConfigurationError("need at least two points")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if np.ptp(xs) == 0:
        raise ConfigurationError("x values are constant")
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=r_squared)

