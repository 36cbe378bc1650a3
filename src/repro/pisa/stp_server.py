"""The Semi-trusted Third Party (Figure 5, steps 6-8).

The STP is the only holder of the group secret key ``sk_G``.  Its entire
protocol role is the *key-conversion* service: decrypt each blinded
indicator ``Ṽ(c,i)``, reduce it to a sign

.. math::

    X(c,i) = \\begin{cases} 1 & V(c,i) > 0 \\\\ -1 & V(c,i) \\le 0 \\end{cases}

(eq. (15)), and re-encrypt the sign under the requesting SU's personal
public key ``pk_j``.  Because the SDC multiplied in per-cell one-time
``α, β`` and a sign coin ``ε``, the decrypted values give the STP no
usable information about the interference indicators (Lemma V.1's
non-collusion assumption).

Steps 6-8 are written once, in :class:`SignConverter`; the packed STP
(:mod:`repro.pisa.packed`) and the two-server backend
(:mod:`repro.pisa.two_server`) are the same converter with another way
to open a ciphertext.

:class:`StpServer` opens a cell with one CRT half: the blinding keeps
``|V|`` below half the smaller prime (:mod:`repro.pisa.blinding`), so
``V mod p`` read in ``(−p/2, p/2)`` is ``V`` — one ``c^{p−1} mod p²``
per cell, no CRT combine.  A ``V`` the SDC cannot have produced would
make those signs an oracle on ``p``, so any opened ``|V|`` above the
blinding's largest is refused (docs/security.md, "The STP opens with
one CRT half").

The re-encryption nonces depend on nothing a request carries, so the
converter draws them one request ahead, per SU, and can spend idle time
on their ``h_n^s mod n_j²`` (:meth:`SignConverter.fill_stock`) — §VI-A's
obfuscator precomputation, on the STP side.  The stock holds nothing
the converter would not draw anyway.  A request is opened before its
nonces are drawn, so one the opening refuses draws nothing.

The STP also operates the public :class:`~repro.pisa.keys.KeyDirectory`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierKeypair,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.parallel import Executor, default_executor
from repro.crypto.rand import RandomSource, default_rng
from repro.errors import ConfigurationError, ProtocolError
from repro.pisa.blinding import BlindingParameters
from repro.pisa.kernel import require_units
from repro.pisa.keys import KeyDirectory
from repro.pisa.messages import SignExtractionRequest, SignExtractionResponse

__all__ = ["SignConverter", "StpServer", "StpStats", "MAX_STOCKED_SUS"]

#: How many SUs' next-request nonces a converter holds at once.  Past it the
#: SU that requested longest ago loses its stock and draws inline again.
MAX_STOCKED_SUS = 32
#: Obfuscators :meth:`SignConverter.fill_stock` computes between two looks
#: at whether a request has arrived — the longest a request waits for it.
_FILL_CHUNK = 4


@dataclass
class StpStats:
    """Operation counters for the evaluation harness."""

    conversions: int = 0
    cells_decrypted: int = 0
    cells_encrypted: int = 0
    #: Re-encryptions whose obfuscator :meth:`SignConverter.fill_stock` had
    #: ready when the request arrived / that the request computed itself.
    obfuscators_stocked: int = 0
    obfuscators_inline: int = 0


@dataclass
class _Stock:
    """One SU's pre-drawn re-encryption nonces ``s``, in draw order."""

    nonces: list[int] = field(default_factory=list)
    #: ``h_n^s mod n²`` for ``nonces[:len(obfuscators)]``.
    obfuscators: list[int] = field(default_factory=list)


class SignConverter:
    """Steps 6-8 of Figure 5, once, for every conversion server.

    Owns everything about a conversion that does not depend on how a
    ``Ṽ`` ciphertext is opened: the SU-key check, whole-request
    validation, the one-ahead nonce draw and the per-SU stock, the
    ``pow_many`` batch (one in steady state), the ``> 0`` of eq. (15), the
    re-encryption under ``pk_j``, :class:`StpStats` and :meth:`fill_stock`.
    A subclass says how to open, in two hooks: :meth:`_open_jobs` and
    :meth:`_open`.
    """

    def __init__(
        self,
        directory: KeyDirectory,
        rng: RandomSource | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.directory = directory
        self._rng = default_rng(rng)
        self._executor = default_executor(executor)
        self.stats = StpStats()
        #: Per SU, the re-encryption nonces drawn for its next request;
        #: SUs in request order, oldest first.
        self._stock: dict[str, _Stock] = {}
        #: Held by the sign extraction being served (or waiting for a
        #: fill chunk to end); :meth:`fill_stock` yields while it is.
        self._serving = threading.Lock()
        #: Guards ``_stock``; a fill chunk holds it while it computes.
        self._stock_lock = threading.Lock()

    @property
    def group_public_key(self) -> PaillierPublicKey:
        """``pk_G`` — published."""
        return self.directory.group_public_key

    def register_su(self, su_id: str, public_key: PaillierPublicKey) -> None:
        """Accept an SU's ``pk_i`` upload (§III-C)."""
        self.directory.register_su_key(su_id, public_key)

    # -- how a ciphertext is opened: the two hooks -------------------------------

    def _open_jobs(self, ciphertext: int) -> tuple[tuple[int, int, int], ...]:
        """The secret-exponent ``pow`` jobs that open one ``Ṽ`` ciphertext."""
        raise NotImplementedError

    def _open(self, request, powers: list[int]) -> list[Sequence[int]]:
        """Per ciphertext, in request order, the signed values it holds.

        ``powers`` are the results of every :meth:`_open_jobs` job, in
        the order submitted.  Runs before the request's nonces are
        drawn: raising here refuses the request with nothing drawn.
        """
        raise NotImplementedError

    def _encode(self, signs: list[int]) -> int:
        """One ciphertext's signs ``X = ±1`` as the plaintext sent back."""
        (sign,) = signs
        return sign

    # -- the key-conversion service --------------------------------------------

    def handle_sign_extraction(
        self, request: SignExtractionRequest, span=None
    ) -> SignExtractionResponse:
        """Steps 6-8 of Figure 5: decrypt Ṽ, take signs, re-encrypt under pk_j."""
        if span is not None:
            span.set_attribute("rows", len(request.matrix))
        cells = [ct for row in request.matrix for ct in row]
        converted = iter(self._convert(request, cells))
        return SignExtractionResponse(
            round_id=request.round_id,
            su_id=request.su_id,
            matrix=tuple(tuple(next(converted) for _ in row) for row in request.matrix),
        )

    def _convert(self, request, cells) -> list[EncryptedNumber]:
        """``cells`` of ``request`` as encrypted signs under its SU's key."""
        if not self.directory.has_su_key(request.su_id):
            raise ProtocolError(f"SU {request.su_id!r} has not registered a key")
        su_key = self.directory.su_key(request.su_id)
        # Validate every cell before the first draw (a rejected request
        # consumes none and leaves the stock alone): under pk_G, a unit,
        # inside (0, n²).
        pk = self.group_public_key
        require_units(cells, pk, "Ṽ entry")
        if not all(0 < ct.ciphertext < pk.n_sq for ct in cells):
            raise ProtocolError("Ṽ entry outside (0, n²)")
        with self._serving, self._stock_lock:
            stock = self._stock.get(request.su_id, _Stock())
            ready = stock.obfuscators[: len(cells)]
            # Open first — the opening may still refuse the request
            # (_open raises) — in one batch with the h_n^s of every stocked
            # nonce this request uses that fill_stock() has not reached.
            jobs = [job for ct in cells for job in self._open_jobs(ct.ciphertext)]
            opening = len(jobs)
            jobs.extend(
                su_key.obfuscator_job(s) for s in stock.nonces[len(ready) : len(cells)]
            )
            powers = self._executor.pow_many(jobs)
            opened = self._open(request, powers[:opening])
            # The nonces are the ones drawn for this SU while serving its
            # previous request; one call draws whatever this request
            # still lacks and then the SU's next request's worth, so in
            # steady state nothing a request needs waits on a draw.
            self._stock.pop(request.su_id, None)  # re-stocked below, as the newest
            surplus = stock.nonces[len(cells):]
            shortfall = max(0, len(cells) - len(stock.nonces))
            # Drawn after the opening batch, never inside one: every
            # executor leaves the stream at the same position.
            drawn = self._rng.random_exponents(  # audit-ok: ORD001 — see above
                shortfall + max(0, len(cells) - len(surplus))
            )
            self._stock[request.su_id] = _Stock(
                surplus + drawn[shortfall:], stock.obfuscators[len(cells):]
            )
            if len(self._stock) > MAX_STOCKED_SUS:
                del self._stock[next(iter(self._stock))]
            # Only an SU's first request, or one wider than its stock,
            # computes h_n^s for nonces drawn just now.
            inline = [su_key.obfuscator_job(s) for s in drawn[:shortfall]]
            obfuscators = ready + powers[opening:] + (
                self._executor.pow_many(inline) if inline else []
            )
            converted = [
                su_key.encrypt_with_obfuscator(
                    self._encode([1 if value > 0 else -1 for value in values]),
                    obfuscator,
                )
                for values, obfuscator in zip(opened, obfuscators)
            ]
            self.stats.conversions += 1
            self.stats.cells_decrypted += len(cells)
            self.stats.cells_encrypted += len(cells)
            self.stats.obfuscators_stocked += len(ready)
            self.stats.obfuscators_inline += len(cells) - len(ready)
        return converted

    # -- idle-time work ----------------------------------------------------------

    def fill_stock(self, stop: Callable[[], bool] = lambda: False) -> None:
        """Compute ``h_n^s mod n_j²`` for stocked nonces until none is left.

        Meant for time in which no request is being served: it works in
        chunks of :data:`_FILL_CHUNK`, SUs in the order they are due to
        ask again, and returns as soon as a sign extraction arrives or
        ``stop()`` is true.  It draws nothing, so whether and how far it
        ran changes no byte — only how much of a request's ``pow_many``
        batch is already done.
        """
        while not (stop() or self._serving.locked()):
            with self._stock_lock:
                for su_id, stock in self._stock.items():
                    done = len(stock.obfuscators)
                    if done < len(stock.nonces):
                        break
                else:
                    return
                su_key = self.directory.su_key(su_id)
                chunk = stock.nonces[done : done + _FILL_CHUNK]
                stock.obfuscators.extend(
                    self._executor.pow_many([su_key.obfuscator_job(s) for s in chunk])
                )

    def stock_counts(self) -> dict[str, int]:
        """How much is stocked and how much of it is filled — counts only.

        Takes no lock (a request holds it for as long as it runs, and
        this answers a worker's ``ping``, which must not wait for one):
        ``list()`` of the values is one atomic snapshot, and the counts
        are a health reading, not an invariant.
        """
        stocks = list(self._stock.values())
        return {
            "stocked_sus": len(stocks),
            "stocked_nonces": sum(len(stock.nonces) for stock in stocks),
            "stocked_obfuscators": sum(len(stock.obfuscators) for stock in stocks),
        }


class StpServer(SignConverter):
    """Key authority + sign-extraction/key-conversion service.

    Opens a ciphertext with one CRT half of the group secret key, and
    refuses a request in which any opened ``|V|`` exceeds what the
    blinding for ``indicator_bound`` can produce
    (:attr:`~repro.pisa.blinding.BlindingParameters.max_blinded`).
    """

    def __init__(
        self,
        group_keypair: PaillierKeypair | None = None,
        key_bits: int = 2048,
        rng: RandomSource | None = None,
        executor: Executor | None = None,
        *,
        indicator_bound: int,
    ) -> None:
        rng = default_rng(rng)
        self._keypair = group_keypair or generate_keypair(key_bits, rng=rng)
        pk, sk = self._keypair.public_key, self._keypair.private_key
        if min(sk.p, sk.q).bit_length() < pk.key_bits // 2:
            raise ConfigurationError(
                "one CRT half opens Ṽ only if both primes have ⌊n_bits/2⌋ bits"
            )
        #: The largest ``|V|`` the SDC's blinding produces; below ``p/2``.
        self._max_blinded = BlindingParameters.for_key(pk, indicator_bound).max_blinded
        super().__init__(KeyDirectory(pk), rng=rng, executor=executor)

    def _open_jobs(self, ciphertext: int):
        return (self._keypair.private_key.half_decrypt_job(ciphertext),)

    def _open(self, request, powers: list[int]):
        sk = self._keypair.private_key
        values = [sk.signed_from_half(power) for power in powers]
        # V mod p answered for a V the SDC cannot have built would be a
        # sign of p: refuse the request instead.
        if any(abs(value) > self._max_blinded for value in values):
            raise ProtocolError("opened Ṽ outside the blinding range")
        return [(value,) for value in values]
