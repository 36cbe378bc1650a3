"""§VI-A comparison — PISA vs generic fully homomorphic encryption.

The paper argues PISA's minutes-scale costs are "acceptable and
practical" against generic FHE, citing homomorphic-AES constants
(≈5.8 s and ≈21 MB per 128-bit block, [21]).  This bench projects both
systems to the paper's full scale and asserts the claimed gap.
"""

import pytest
from conftest import emit

from repro.analysis.reporting import format_comparison_table
from repro.analysis.scaling import estimate_full_scale, measure_cost_profile
from repro.baselines.fhe_costmodel import FheCostModel

_RESULTS = {}


def test_pisa_projection(benchmark, paper_keypair, bench_rng):
    def project():
        profile = measure_cost_profile(
            keypair=paper_keypair, iterations=5, rng=bench_rng
        )
        return estimate_full_scale(profile, num_channels=100, num_blocks=600)

    _RESULTS["pisa"] = benchmark.pedantic(project, rounds=1, iterations=1)


def test_fhe_projection(benchmark):
    model = FheCostModel()
    _RESULTS["fhe"] = benchmark(
        lambda: model.estimate_request(num_channels=100, num_blocks=600, value_bits=60)
    )


def test_zzz_render_comparison(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    pisa = _RESULTS["pisa"]
    fhe = _RESULTS["fhe"]
    # The paper's Figure 6 "processing" time is the SDC's own work; the
    # STP's key-conversion service is reported as its own row.
    pisa_total_s = pisa.sdc_processing_s
    emit(format_comparison_table(
        "PISA vs generic FHE (projected @ C=100, B=600, 60-bit values)",
        [
            ("SDC processing time",
             f"{pisa_total_s / 60:.1f} min",
             f"{fhe.time_hours:.1f} h"),
            ("STP conversion time",
             f"{pisa.stp_conversion_s / 60:.1f} min", "—"),
            ("working set",
             f"{pisa.su_request_bytes / 1e6:.0f} MB (request ct)",
             f"{fhe.memory_mb / 1e3:.0f} GB"),
            ("input blocks", "60 000 Paillier cts", f"{fhe.input_blocks} FHE blocks"),
        ],
        headers=("metric", "PISA", "generic FHE [21]"),
    ))
    # The paper's claim: PISA is an order of magnitude more practical —
    # on either arithmetic of repro.crypto.backend (the builtin-pow
    # fallback, ≈ 10x slower per modexp, narrows the gap most).
    assert fhe.time_seconds > 10 * pisa_total_s
    assert fhe.memory_mb * 1e6 > 5 * pisa.su_request_bytes
