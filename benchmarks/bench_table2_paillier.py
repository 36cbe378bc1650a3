"""Table II — benchmark of the Paillier cryptosystem (n = 2048 bits).

Runs the exact operations of Table II at the paper's key size and prints
a paper-vs-measured comparison.  Absolute times differ (the paper used
GMP from C on an i5-2400; we call libgmp through ``ctypes`` where the
host has it and builtin ``pow`` where not — the column header says
which), but the *ordering* —
addition ≪ subtraction < 100-bit scaling < full scaling ≈ encryption —
is the reproducible claim, and sizes match bit-for-bit.
"""

import pytest
from conftest import emit

from repro.analysis.reporting import format_comparison_table
from repro.crypto import backend

#: Paper-reported values (Table II) for the side-by-side print-out.
PAPER_TABLE2 = {
    "Public key size": "4096 bits",
    "Secret key size": "4096 bits",
    "Plaintext message size": "2048 bits",
    "Ciphertext size": "4096 bits",
    "Encryption": "30.378 ms",
    "Decryption": "21.170 ms",
    "Homomorphic addition": "0.004 ms",
    "Homomorphic subtraction": "0.073 ms",
    "Homomorphic scale (100-bit constant)": "1.564 ms",
    "Homomorphic scale": "18.867 ms",
}

_RESULTS: dict[str, float] = {}


@pytest.fixture(scope="module")
def material(paper_keypair, bench_rng):
    pk = paper_keypair.public_key
    return {
        "pk": pk,
        "sk": paper_keypair.private_key,
        "ct_a": pk.encrypt(123456789, rng=bench_rng),
        "ct_b": pk.encrypt(987654321, rng=bench_rng),
        "small_scalar": bench_rng.randbits(100) | 1,
        "full_scalar": bench_rng.randbits(pk.key_bits) | 1,
    }


def _record(name: str, benchmark) -> None:
    _RESULTS[name] = benchmark.stats["mean"] * 1e3  # ms


def test_sizes_match_paper(benchmark, paper_keypair):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    pk = paper_keypair.public_key
    assert pk.key_bits == 2048
    # Public key (n, g): dominated by 2·2048 bits; ciphertext lives mod n².
    assert pk.n_sq.bit_length() in (4095, 4096)


def test_encryption(benchmark, material, bench_rng):
    pk = material["pk"]
    benchmark.pedantic(
        lambda: pk.encrypt(42, rng=bench_rng), rounds=8, iterations=1, warmup_rounds=1
    )
    _record("Encryption", benchmark)


def test_decryption(benchmark, material):
    sk, ct = material["sk"], material["ct_a"]
    benchmark.pedantic(lambda: sk.decrypt(ct), rounds=10, iterations=3, warmup_rounds=1)
    _record("Decryption", benchmark)


def test_homomorphic_addition(benchmark, material):
    a, b = material["ct_a"], material["ct_b"]
    benchmark(lambda: a.add(b))
    _record("Homomorphic addition", benchmark)


def test_homomorphic_subtraction(benchmark, material):
    a, b = material["ct_a"], material["ct_b"]
    benchmark.pedantic(lambda: a.subtract(b), rounds=10, iterations=5, warmup_rounds=1)
    _record("Homomorphic subtraction", benchmark)


def test_homomorphic_scale_100bit(benchmark, material):
    a, k = material["ct_a"], material["small_scalar"]
    benchmark.pedantic(lambda: a.scalar_mul(k), rounds=10, iterations=3, warmup_rounds=1)
    _record("Homomorphic scale (100-bit constant)", benchmark)


def test_homomorphic_scale_full(benchmark, material):
    a, k = material["ct_a"], material["full_scalar"]
    benchmark.pedantic(lambda: a.scalar_mul(k), rounds=6, iterations=1, warmup_rounds=1)
    _record("Homomorphic scale", benchmark)


def test_rerandomization(benchmark, material, bench_rng):
    """Not in Table II, but §VI-A's fast refresh path relies on it."""
    a = material["ct_a"]
    benchmark.pedantic(lambda: a.rerandomize(bench_rng), rounds=6, iterations=1,
                       warmup_rounds=1)
    _record("Re-randomisation", benchmark)


def test_zzz_render_table(benchmark, material):
    """Runs last (name-ordered within the module): prints the comparison."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    pk = material["pk"]
    rows = [
        ("Public key size", PAPER_TABLE2["Public key size"], f"{2 * pk.key_bits} bits"),
        ("Secret key size", PAPER_TABLE2["Secret key size"], f"{2 * pk.key_bits} bits"),
        ("Plaintext message size", PAPER_TABLE2["Plaintext message size"],
         f"{pk.key_bits} bits"),
        ("Ciphertext size", PAPER_TABLE2["Ciphertext size"], f"{2 * pk.key_bits} bits"),
    ]
    for op in (
        "Encryption",
        "Decryption",
        "Homomorphic addition",
        "Homomorphic subtraction",
        "Homomorphic scale (100-bit constant)",
        "Homomorphic scale",
    ):
        measured = f"{_RESULTS[op]:.3f} ms" if op in _RESULTS else "n/a"
        rows.append((op, PAPER_TABLE2[op], measured))
    if "Re-randomisation" in _RESULTS:
        rows.append(("Re-randomisation (§VI-A refresh)", "—",
                     f"{_RESULTS['Re-randomisation']:.3f} ms"))
    emit(format_comparison_table(
        "Table II: Paillier benchmark (n = 2048 bits)", rows,
        headers=("operation", "paper (GMP)", f"ours ({backend.describe()})"),
    ))
    # The reproducible claim: the cost ordering of Table II.
    if len(_RESULTS) >= 6:
        assert _RESULTS["Homomorphic addition"] < _RESULTS["Homomorphic subtraction"]
        assert (
            _RESULTS["Homomorphic subtraction"]
            < _RESULTS["Homomorphic scale (100-bit constant)"]
        )
        assert (
            _RESULTS["Homomorphic scale (100-bit constant)"]
            < _RESULTS["Homomorphic scale"]
        )
