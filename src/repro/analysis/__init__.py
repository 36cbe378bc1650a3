"""Evaluation support: overhead accounting, scaling, report rendering.

* :mod:`repro.analysis.overhead` — structured computation/communication
  cost summaries assembled from protocol runs;
* :mod:`repro.analysis.scaling` — extrapolate measured per-operation
  costs to the paper's full setting (C=100, B=600, n=2048), since
  60 000 2048-bit encryptions per request do not fit in benchmark time
  on either arithmetic of :mod:`repro.crypto.backend`;
* :mod:`repro.analysis.reporting` — fixed-width text tables matching the
  paper's table/figure structure for benchmark output.
"""

from repro.analysis.overhead import CommunicationSummary, summarize_transport
from repro.analysis.reporting import format_table
from repro.analysis.stats import LinearFit, linear_fit
from repro.analysis.scaling import (
    PaillierCostProfile,
    ScaledSystemEstimate,
    estimate_full_scale,
    measure_cost_profile,
)

__all__ = [
    "CommunicationSummary",
    "summarize_transport",
    "format_table",
    "LinearFit",
    "linear_fit",
    "PaillierCostProfile",
    "ScaledSystemEstimate",
    "estimate_full_scale",
    "measure_cost_profile",
]
