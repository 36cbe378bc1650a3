"""Shared benchmark fixtures.

The benchmark suite reproduces every table and figure of §VI.  Two scale
regimes are used:

* **paper-scale crypto** — Table II runs at the paper's real 2048-bit
  modulus (libgmp through ``ctypes`` where the host has it, builtin
  ``pow`` otherwise: a small constant factor off the paper's C either way);
* **reduced-scale system** — the end-to-end Figure 6 benches run a
  smaller (C, B, key) configuration and print the measured numbers next
  to an extrapolation to the paper's (100, 600, 2048) setting computed
  by :mod:`repro.analysis.scaling`.

Every bench prints a comparison table (paper-reported vs measured); run
with ``-s`` to see them, e.g.::

    pytest benchmarks/ --ignore=benchmarks/spine --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.crypto.paillier import generate_keypair
from repro.crypto.rand import DeterministicRandomSource

#: The paper's crypto setting (NIST 112-bit security).
PAPER_KEY_BITS = 2048
#: Reduced setting for end-to-end system benches.
SYSTEM_KEY_BITS = 512
SYSTEM_CHANNELS = 10
SYSTEM_GRID = (6, 8)  # 48 blocks


@pytest.fixture(scope="session")
def bench_rng():
    return DeterministicRandomSource("pisa-benchmarks")


@pytest.fixture(scope="session")
def paper_keypair(bench_rng):
    """A 2048-bit keypair matching Table II's setting."""
    return generate_keypair(PAPER_KEY_BITS, rng=bench_rng.fork("paper-key"))


@pytest.fixture(scope="session")
def system_keypair(bench_rng):
    """The reduced-scale keypair for end-to-end benches."""
    return generate_keypair(SYSTEM_KEY_BITS, rng=bench_rng.fork("system-key"))


@pytest.fixture(scope="session")
def system_scenario():
    """The reduced-scale WATCH scenario shared by the system benches."""
    from repro.watch.scenario import ScenarioConfig, build_scenario

    rows, cols = SYSTEM_GRID
    return build_scenario(
        ScenarioConfig(
            grid_rows=rows,
            grid_cols=cols,
            num_channels=SYSTEM_CHANNELS,
            num_towers=3,
            num_pus=6,
            num_sus=2,
            seed=1,
        )
    )


def emit(text: str) -> None:
    """Print a report block (visible with ``pytest -s``)."""
    print("\n" + text)
