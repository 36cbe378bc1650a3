"""Runtime protocol sanitizer — a transport wrapper that checks invariants
on every message in flight.

:class:`SanitizingTransport` wraps any transport exposing
``send(message, sender, receiver)`` (normally
:class:`repro.net.transport.InMemoryTransport`) and asserts, per message:

* every ciphertext is **well-formed**: ``0 < c < modulus`` and
  ``gcd(c, modulus) == 1`` (a ciphertext sharing a factor with ``n``
  leaks the factorization and can never decrypt correctly);
* **STP-bound envelopes carry only blinded values**: messages addressed
  to the STP must be one of the sanctioned sign-extraction envelope
  types (or the broker's per-epoch batch of them), and their
  ciphertexts must live under the *group* key — never an SU's personal
  key (§IV-B: the STP sees only ``Ṽ = ε(αI − β)``);
* **re-randomization freshness**: within one epoch, no ciphertext
  integer in an SU-originated request may repeat — a repeat means a
  cached request was re-submitted without re-randomization, which lets
  the SDC link requests across rounds.

Violations raise :class:`repro.errors.SanitizerViolation` immediately at
the ``send`` call, so the failing protocol step is on the stack.

The test suite enables the wrapper through the ``sanitized_transport``
fixture (see ``tests/conftest.py``); setting ``PISA_SANITIZE=1`` in the
environment turns it on for every test that uses the fixture.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from typing import Iterable, Iterator

from repro.errors import SanitizerViolation

__all__ = ["SanitizingTransport", "iter_ciphertexts"]

#: Message class names allowed to travel to the STP.  Anything else
#: addressed to an STP receiver is a protocol violation.
STP_ENVELOPE_KINDS = frozenset(
    {
        "SignExtractionRequest",
        "PackedSignExtractionRequest",
        "PartialSignExtractionRequest",
    }
)

#: The broker's per-epoch frame (:mod:`repro.service.batching`); every
#: member must itself be one of the kinds above.
_STP_BATCH_KIND = "BatchSignExtractionRequest"

#: Receiver names treated as the sign-extraction server.
_STP_RECEIVERS = ("stp", "backend")

#: Message class names whose ciphertexts must be fresh within an epoch.
_FRESHNESS_KINDS = frozenset({"SURequestMessage", "PackedRequestMessage"})


def _is_ciphertext(value: object) -> bool:
    """Duck-typed ciphertext test: key-bound integer ciphertext."""
    return (
        hasattr(value, "ciphertext")
        and hasattr(value, "public_key")
        and isinstance(getattr(value, "ciphertext"), int)
    )


def iter_ciphertexts(value: object, _depth: int = 0) -> Iterator:
    """Yield every ciphertext object reachable inside ``value``.

    Recurses through dataclasses, tuples, lists, dicts, and sets; depth
    is bounded defensively against cyclic structures.
    """
    if _depth > 16:
        return
    if _is_ciphertext(value):
        yield value
        return
    if is_dataclass(value) and not isinstance(value, type):
        for spec in fields(value):
            yield from iter_ciphertexts(getattr(value, spec.name), _depth + 1)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_ciphertexts(item, _depth + 1)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from iter_ciphertexts(item, _depth + 1)


def _modulus_of(ct) -> int:
    """Ciphertext-space modulus: n² for a Paillier key."""
    pk = ct.public_key
    if hasattr(pk, "n_sq"):
        return pk.n_sq
    raise SanitizerViolation(
        f"ciphertext public key {type(pk).__name__} exposes no modulus"
    )


class SanitizingTransport:
    """Invariant-checking wrapper around a message transport."""

    def __init__(self, inner, group_key=None) -> None:
        self.inner = inner
        self._group_key = group_key
        self._seen: set[int] = set()
        self.messages_checked = 0
        self.ciphertexts_checked = 0

    # -- configuration -----------------------------------------------------

    def bind_group_key(self, public_key) -> None:
        """Late-bind the group key ``pk_G`` (generated after construction)."""
        self._group_key = public_key

    def new_epoch(self) -> None:
        """Reset freshness tracking at an epoch boundary."""
        self._seen.clear()

    # -- the check ---------------------------------------------------------

    def send(self, message, sender: str, receiver: str):
        kind = type(message).__name__
        cts = list(iter_ciphertexts(message))
        for ct in cts:
            self._check_well_formed(ct, kind, sender, receiver)
        if any(receiver.lower().startswith(tag) for tag in _STP_RECEIVERS):
            self._check_stp_envelope(message, kind, cts, sender, receiver)
        if kind in _FRESHNESS_KINDS:
            self._check_freshness(cts, kind, sender)
        self.messages_checked += 1
        self.ciphertexts_checked += len(cts)
        return self.inner.send(message, sender, receiver)

    def _check_well_formed(self, ct, kind: str, sender: str, receiver: str) -> None:
        modulus = _modulus_of(ct)
        value = ct.ciphertext
        if not 0 < value < modulus:
            raise SanitizerViolation(
                f"{kind} {sender}->{receiver}: ciphertext out of range "
                f"[1, modulus): got {value.bit_length()} bits vs modulus "
                f"{modulus.bit_length()} bits"
            )
        if math.gcd(value, modulus) != 1:
            raise SanitizerViolation(
                f"{kind} {sender}->{receiver}: ciphertext shares a factor "
                "with the modulus — invalid (and factor-leaking) ciphertext"
            )

    def _check_stp_envelope(
        self, message, kind: str, cts: Iterable, sender: str, receiver: str
    ) -> None:
        members = message.requests if kind == _STP_BATCH_KIND else (message,)
        for member in members:
            if type(member).__name__ not in STP_ENVELOPE_KINDS:
                raise SanitizerViolation(
                    f"{kind} {sender}->{receiver}: only blinded sign-extraction "
                    f"envelopes may reach the STP (allowed: "
                    f"{', '.join(sorted(STP_ENVELOPE_KINDS))})"
                )
        if self._group_key is not None:
            for ct in cts:
                if ct.public_key != self._group_key:
                    raise SanitizerViolation(
                        f"{kind} {sender}->{receiver}: STP-bound ciphertext is "
                        "not under the group key — unblinded or personal-key "
                        "material would leak to the STP"
                    )

    def _check_freshness(self, cts: Iterable, kind: str, sender: str) -> None:
        for ct in cts:
            value = ct.ciphertext
            if value in self._seen:
                raise SanitizerViolation(
                    f"{kind} from {sender}: ciphertext repeats within the "
                    "epoch — request was re-sent without re-randomization"
                )
            self._seen.add(value)

    # -- delegation --------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self.inner, name)
