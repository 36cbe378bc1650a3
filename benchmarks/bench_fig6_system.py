"""Figure 6 — system evaluation (request prep/processing, update costs, sizes).

The paper's Figure 6 numbers (at C=100, B=600, n=2048, GMP):

* SU request preparation ≈ 221 s (precomputable; ≈11 s via re-randomise)
* SDC request processing ≈ 219 s
* PU update message ≈ 0.05 MB; SDC handles an update in ≈ 2.6 s
* SU request ciphertext ≈ 29 MB; response ≈ 4.1 kb

Pure-Python crypto cannot run 60 000 2048-bit encryptions inside a
benchmark suite, so this module does both of:

1. **measure** every phase end-to-end at a reduced scale
   (C=10, B=48, n=512) through the real protocol stack;
2. **extrapolate** to the paper's setting by multiplying per-primitive
   costs measured at n=2048 (Table II methodology) with the full-scale
   operation counts, via :mod:`repro.analysis.scaling`.

The printed table shows paper / measured-small / projected-full side by
side.  The asserted, hardware-independent claims are the *shape* ones:
preparation ≈ processing ≫ PU update, refresh ≈ 20x cheaper than
preparation, response ≈ one ciphertext.
"""

import pytest
from conftest import SYSTEM_KEY_BITS, emit

from repro.analysis.reporting import format_comparison_table
from repro.analysis.scaling import estimate_full_scale, measure_cost_profile
from repro.crypto.rand import DeterministicRandomSource
from repro.pisa.protocol import PisaCoordinator

_MEASURED: dict[str, float] = {}
_SIZES: dict[str, int] = {}


@pytest.fixture(scope="module")
def deployment(system_scenario):
    coord = PisaCoordinator(
        system_scenario.environment,
        key_bits=SYSTEM_KEY_BITS,
        rng=DeterministicRandomSource("fig6"),
    )
    for pu in system_scenario.pus:
        coord.enroll_pu(pu)
    for su in system_scenario.sus:
        coord.enroll_su(su)
    return coord


@pytest.fixture(scope="module")
def su_id(system_scenario):
    return system_scenario.sus[0].su_id


def test_request_preparation(benchmark, deployment, su_id):
    client = deployment.su_client(su_id)
    result = benchmark.pedantic(
        client.prepare_request, rounds=3, iterations=1, warmup_rounds=1
    )
    _MEASURED["prep"] = benchmark.stats["mean"]
    _SIZES["request"] = result.wire_size()


def test_request_refresh(benchmark, deployment, su_id):
    """§VI-A: re-randomising a cached request is far cheaper.

    The ``r**n`` obfuscators are precomputed (offline, per the paper);
    the timed region is the online per-ciphertext multiplication.
    """
    client = deployment.su_client(su_id)
    client.prepare_request()

    def stock_pool():
        client.precompute_refresh_material(rounds=1)

    benchmark.pedantic(
        client.refresh_request, setup=stock_pool, rounds=3, iterations=1,
        warmup_rounds=1,
    )
    _MEASURED["refresh"] = benchmark.stats["mean"]


def test_sdc_processing(benchmark, deployment, su_id):
    """Eqs. (11), (12), (14), (16), (17) — the SDC's per-request work."""
    client = deployment.su_client(su_id)
    request = client.prepare_request()

    def process():
        extraction = deployment.sdc.start_request(request)
        conversion = deployment.stp.handle_sign_extraction(extraction)
        response = deployment.sdc.finish_request(conversion)
        _SIZES["extraction"] = extraction.wire_size()
        _SIZES["conversion"] = conversion.wire_size()
        _SIZES["response"] = response.wire_size()
        return response

    benchmark.pedantic(process, rounds=3, iterations=1, warmup_rounds=1)
    _MEASURED["processing"] = benchmark.stats["mean"]


def test_pu_update(benchmark, deployment, system_scenario):
    """Figure 4 + eqs. (9)/(10): PU-side encryption and SDC-side folding."""
    pu_client = deployment.pu_client(system_scenario.pus[0].receiver_id)

    def update_round():
        message = pu_client.build_update()
        deployment.sdc.handle_pu_update(message)
        _SIZES["pu_update"] = message.wire_size()
        return message

    benchmark.pedantic(update_round, rounds=3, iterations=1, warmup_rounds=1)
    _MEASURED["pu_update"] = benchmark.stats["mean"]


def test_zzz_render_figure6(benchmark, deployment, paper_keypair, bench_rng, system_scenario):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    profile = measure_cost_profile(
        keypair=paper_keypair, iterations=10, rng=bench_rng
    )
    projected = estimate_full_scale(profile, num_channels=100, num_blocks=600)
    env = system_scenario.environment
    scale_note = f"C={env.num_channels}, B={env.num_blocks}, n={SYSTEM_KEY_BITS}"

    def ms(key):
        return f"{_MEASURED[key]:.3f} s" if key in _MEASURED else "n/a"

    rows = [
        ("SU request preparation", "≈221 s", f"{ms('prep')} | {projected.request_preparation_s:.0f} s"),
        ("SU request refresh", "≈11 s", f"{ms('refresh')} | {projected.request_refresh_s:.0f} s"),
        ("SDC request processing", "≈219 s", f"{ms('processing')} | {projected.sdc_processing_s:.0f} s"),
        # The paper does not cost the STP; one CRT half + one encryption per cell.
        ("STP sign extraction + conversion", "—", f"n/a | {projected.stp_conversion_s:.0f} s"),
        ("PU update round", "≈2.6 s", f"{ms('pu_update')} | {projected.sdc_pu_update_s + projected.pu_update_prepare_s:.1f} s"),
        ("SU request size", "≈29 MB",
         f"{_SIZES.get('request', 0) / 1e6:.2f} MB | {projected.su_request_bytes / 1e6:.1f} MB"),
        ("PU update size", "≈0.05 MB",
         f"{_SIZES.get('pu_update', 0) / 1e6:.4f} MB | {projected.pu_update_bytes / 1e6:.3f} MB"),
        ("Response size", "≈4.1 kb",
         f"{_SIZES.get('response', 0) * 8 / 1e3:.1f} kb | {projected.response_bytes * 8 / 1e3:.1f} kb"),
    ]
    emit(format_comparison_table(
        f"Figure 6: system evaluation (measured @ {scale_note} | projected @ paper scale)",
        rows,
        headers=("phase", "paper", "measured | projected"),
    ))

    # Shape assertions (hardware-independent Figure 6 claims):
    if {"prep", "refresh", "processing", "pu_update"} <= _MEASURED.keys():
        # 1. Refresh is much cheaper than fresh preparation (paper: 221 s→11 s, 20x).
        assert _MEASURED["refresh"] < _MEASURED["prep"] / 3
        # 2. Preparation and processing are the two dominant phases and
        #    are within an order of magnitude of each other (221 vs 219 s).
        ratio = _MEASURED["processing"] / _MEASURED["prep"]
        assert 0.1 < ratio < 10.0
        # 3. A PU update is far cheaper than a request (2.6 vs 219 s).
        assert _MEASURED["pu_update"] < _MEASURED["processing"] / 5
    # 4. The response is a constant single ciphertext while the request
    #    scales with C·B (29 MB vs 4.1 kb at paper scale; the ratio at
    #    the reduced C·B = 480 is proportionally smaller).
    assert _SIZES["response"] * 100 < _SIZES["request"]
    assert projected.response_bytes * 1000 < projected.su_request_bytes
    # 5. Projected full-scale numbers land in the paper's regime
    #    (minutes, not milliseconds and not days).
    assert 30 < projected.request_preparation_s < 36_000
    assert 30 < projected.sdc_processing_s < 36_000
