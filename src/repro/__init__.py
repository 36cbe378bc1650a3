"""PISA — Privacy-preserving fine-grained spectrum access (ICDCS 2017).

A full reproduction of Guan et al., "When Smart TV Meets CRN:
Privacy-Preserving Fine-Grained Spectrum Access".  The package contains:

* :mod:`repro.crypto` — Paillier cryptosystem, signatures, encodings;
* :mod:`repro.radio` — propagation models, terrain, antennas, channels;
* :mod:`repro.geo` — block-grid geography of the SDC service area;
* :mod:`repro.watch` — the plaintext WATCH spectrum-sharing baseline;
* :mod:`repro.pisa` — the PISA privacy-preserving protocol (the paper's
  contribution);
* :mod:`repro.net` — in-memory transport with byte accounting;
* :mod:`repro.cluster` — the sharded SDC: ring, shards, router, failover;
* :mod:`repro.netd` — the socket plane: shard and STP worker processes;
* :mod:`repro.service` — the broker: admission, epoch batching, loadtest;
* :mod:`repro.store` — durable state behind ``StateStore`` (SQLite, memory);
* :mod:`repro.resilience` — epoch journal, retry policy, chaos harness;
* :mod:`repro.telemetry` — spans, metrics and their exporters;
* :mod:`repro.audit` — the static audit (``repro audit``);
* :mod:`repro.sim` — deployment and capacity simulation;
* :mod:`repro.sdr` — simulated USRP testbed for §VI-B;
* :mod:`repro.baselines` — secure-comparison and FHE cost baselines;
* :mod:`repro.analysis` — overhead accounting, scaling, reporting.

Quickstart
----------
>>> from repro import quickstart_demo
>>> report = quickstart_demo(seed=7)
>>> report.granted in (True, False)
True
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.crypto import (
    EncryptedNumber,
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)

__all__ = [
    "__version__",
    "EncryptedNumber",
    "PaillierKeypair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_keypair",
]


def quickstart_demo(seed: int = 0):
    """Run one tiny PISA round end-to-end and return the decision report.

    Lazy import so that ``import repro`` stays cheap.
    """
    from repro.pisa.protocol import small_demo

    return small_demo(seed=seed)
