"""Cryptographic substrate for PISA.

This subpackage implements, from scratch, everything PISA needs:

* :mod:`repro.crypto.backend` — ``powmod``, the one modular-exponentiation
  funnel: libgmp through ``ctypes`` when present, builtin ``pow`` otherwise.
* :mod:`repro.crypto.numtheory` — primality testing, prime generation,
  modular inverses, CRT recombination.
* :mod:`repro.crypto.rand` — secure and deterministic randomness sources.
* :mod:`repro.crypto.paillier` — the Paillier cryptosystem with the
  homomorphic operations of Figure 2 of the paper.
* :mod:`repro.crypto.encoding` — signed-integer and fixed-point encodings
  on the plaintext ring Z_n.
* :mod:`repro.crypto.signatures` — RSA full-domain-hash signatures used for
  transmission licenses.
* :mod:`repro.crypto.serialization` — canonical byte encodings with exact
  size accounting for the communication-overhead evaluation.
"""

from repro.crypto.encoding import SignedEncoder
from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierKeypair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.signatures import RsaFdhSigner, RsaFdhVerifier, generate_rsa_keypair

__all__ = [
    "EncryptedNumber",
    "PaillierKeypair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_keypair",
    "SignedEncoder",
    "RsaFdhSigner",
    "RsaFdhVerifier",
    "generate_rsa_keypair",
]
