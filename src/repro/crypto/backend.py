"""The one modular-exponentiation funnel: libgmp when present, ``pow`` otherwise.

The paper's prototype is GMP-backed C.  At import this module looks for
the shared library, binds ``mpz_powm`` / ``mpz_invert`` through stdlib
:mod:`ctypes` and checks one known answer of each against builtin
``pow``; on any failure (no library, a missing symbol, a wrong answer, a
big-endian host) :func:`powmod` simply *is* ``pow``.  There is no
switch: the choice is made from what the process can observe, and
:func:`describe` reports it.

Contract: ``powmod_many(jobs)`` equals ``[pow(b, e, m) for b, e, m in
jobs]`` on every input and raises what the first failing job raises;
``powmod(b, e, m)`` is its one-job case.  GMP *aborts the process* on a
zero modulus or a non-invertible base under a negative exponent where
Python raises ``ValueError``, so the native path is taken only where it
is safe and worth a foreign call: plain ``int`` arguments, ``base ≥
0``, ``modulus ≥`` :data:`_NATIVE_FLOOR`, exponent ``≥ 2``
(``mpz_powm``) or negative (``mpz_invert`` with its return code checked,
then ``mpz_powm`` by ``|exponent|`` unless that is 1).

Operands cross without a foreign call: each is an ``mpz_t`` header this
module owns, pointed at a copy of the ``int``'s limbs (what
``mpz_roinit_n`` makes), and a result is read from its limbs in place.
A batch sets each distinct modulus once and an exponent once for as many
consecutive jobs as share it (every cell a CRT half opens shares
``p − 1``).  What is left per job is one ``mpz_powm``; at 512-bit keys a
square modulo ``n²`` measured 12.1 → 6.7 µs against the import/export
round this replaced (shared 2-vCPU Xeon VM, libgmp 6.2.1).

Fixed bases.  A :class:`FixedBase` is an ``int`` that names its modulus:
every Paillier obfuscator is ``h_n^s mod n²`` with ``h_n`` fixed per key
and ``s`` a 256-bit nonce.  Once one such base has gone through
:data:`_BUILD_AFTER` in-domain exponentiations (modulus its own, exponent
in ``(1, 2^256)``), a Lim–Lee fixed-base comb (Lim and Lee, "More
flexible exponentiation with precomputation", CRYPTO '94) is built for
it and ``h_n^s`` becomes :data:`_STEPS` short multiply-and-reduce calls
instead of one ``mpz_powm``.  At most :data:`_MAX_TABLES` tables are
alive; past it the least recently used is dropped.  Those calls go
through a ``PyDLL``, which holds the GIL: comb evaluations do not overlap
in threads, and do not hand the GIL over ≈ 80 times an obfuscator.  Not
once either (the result is read from its limbs): a thread that lets go
of the GIL of its own accord takes it straight back, and one waiting
for it would wait out evaluation after evaluation; held throughout, the
GIL goes to a waiting thread at the next switch interval.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import operator
import sys
import threading
from collections import OrderedDict
from typing import Iterable

__all__ = ["FixedBase", "powmod", "powmod_many", "describe"]

#: Smallest modulus sent to libgmp (256 bits): measured ≈ 9× faster than
#: ``pow`` there and 10–12× from 512 to 4096 bits; ``x**-1`` breaks even near
#: 100 bits.  Exponents 0 and 1 are a reduction (0.1 µs in ``pow``) and stay.
_NATIVE_FLOOR = 1 << 255

#: Lim–Lee comb shape for a :data:`_COMB_BITS`-bit exponent: ``_ROWS`` rows
#: of 32 bits, each cut into ``_COLUMNS`` blocks of :data:`_BLOCK` bits, so a
#: table holds ``_COLUMNS · (2^_ROWS − 1)`` = 1,020 entries (128 KiB of limbs
#: plus 16 KiB of ``mpz_t`` headers for a 512-bit key, 510 + 16 KiB at 2048)
#: and an evaluation is at most :data:`_STEPS` multiply-and-reduce calls.
#: Measured (shared 2-vCPU Xeon VM, libgmp 6.2.1, best of five over 200
#: jobs at 512 bits and 40 at 2048): 0.056 vs 0.105 ms (``mpz_powm``) per
#: obfuscator at 512 bits, 0.347 vs 1.662 ms at 2048.  BGMW with 7-bit
#: windows is about as fast but needs 4,699 entries (0.6 MB a 512-bit key).
_ROWS, _COLUMNS = 8, 4
_COMB_BITS = 256
_ROW_BITS = _COMB_BITS // _ROWS  # 32
_BLOCK = _ROW_BITS // _COLUMNS  # 8
_PER_COLUMN = (1 << _ROWS) - 1  # entries per column: every non-zero digit
_ENTRIES = _COLUMNS * _PER_COLUMN
_STEPS = _BLOCK * _COLUMNS + _BLOCK - 1  # 32 multiplications, 7 squarings
#: A base gets its table after this many in-domain exponentiations since its
#: last build.  A build measured 2.5 ms at 512 bits (≈ 24 ``mpz_powm``) and
#: 12 ms at 2048 (≈ 7), repaid after ≈ 50 and ≈ 9 comb evaluations.
_BUILD_AFTER = 64
#: Live tables per process, least recently used dropped first.  The STP
#: stocks ``MAX_STOCKED_SUS`` = 32 SU keys and everyone encrypts under the
#: group key; 40 tables are 5.6 MiB at 512-bit keys and 21 MiB at 2048.
_MAX_TABLES = 40


class FixedBase(int):
    """A ``powmod`` base that is used again and again with one ``modulus``.

    Compares, hashes and computes as the plain ``int`` it is; only
    :func:`powmod` reads :attr:`modulus`, to decide whether a comb table
    may serve the call.
    """

    def __new__(cls, value: int, modulus: int) -> "FixedBase":
        self = super().__new__(cls, value)
        self.modulus = operator.index(modulus)
        #: In-domain exponentiations since its last table was built.
        self.uses = 0
        return self

    def __getnewargs__(self) -> tuple[int, int]:
        return int(self), self.modulus


class _Mpz(ctypes.Structure):
    """``__mpz_struct``, GMP's public integer header."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


_HEADER = ctypes.sizeof(_Mpz)


def _limbs_of(value: int, limb_bits: int) -> tuple[int, bytes]:
    """The non-negative ``value`` as ``(size, limbs)``: its limb count and
    its limbs, least significant first, as libgmp lays them out."""
    size = (value.bit_length() + limb_bits - 1) // limb_bits
    return size, value.to_bytes(size * limb_bits // 8, "little")


def _value_of(mpz: _Mpz, limb_bits: int) -> int:
    """The non-negative value an ``mpz_t`` holds, read from its limbs."""
    size = mpz.size
    if not size:
        return 0
    raw = (ctypes.c_char * (size * limb_bits // 8)).from_address(mpz.limbs).raw
    return int.from_bytes(raw, "little")


class _Operand:
    """A read-only ``mpz_t`` over limbs this module owns, as
    ``mpz_roinit_n`` makes one (``alloc`` 0): libgmp reads it and never
    frees or grows it, and setting it is a copy, not a foreign call."""

    __slots__ = ("header", "address", "_limb_bits", "_limbs", "_bytes")

    def __init__(self, limb_bits: int) -> None:
        self.header = _Mpz()
        self.address = ctypes.c_void_p(ctypes.addressof(self.header))
        self._limb_bits = limb_bits
        self._limbs = None
        self._bytes = memoryview(bytearray())

    def set(self, value: int) -> None:
        """Hold the non-negative ``value``."""
        size, raw = _limbs_of(value, self._limb_bits)
        if len(raw) > len(self._bytes):
            self._limbs = (ctypes.c_uint64 * ((len(raw) + 7) >> 3))()  # limb-aligned
            self._bytes = memoryview(self._limbs).cast("B")
            self.header.limbs = ctypes.addressof(self._limbs)
        self._bytes[: len(raw)] = raw
        self.header.size = size


class _Scratch:
    """One thread's operands: a base, an exponent, one per modulus a batch
    holds (as many as its widest batch had), and two ``mpz_t`` libgmp
    writes (the comb's product, and every result).  Freed with the thread."""

    def __init__(self, gmp: "_Gmp") -> None:
        self._gmp = gmp
        self.base, self.exponent = _Operand(gmp.limb_bits), _Operand(gmp.limb_bits)
        self.moduli: list[_Operand] = []
        self.written = (_Mpz(), _Mpz())
        for mpz in self.written:
            gmp.init(ctypes.byref(mpz))
        #: The written ``mpz_t`` as addresses.
        self.product, self.result = (
            ctypes.c_void_p(ctypes.addressof(mpz)) for mpz in self.written
        )

    def modulus(self, index: int) -> _Operand:
        """The ``index``-th modulus operand of a batch."""
        while len(self.moduli) <= index:
            self.moduli.append(_Operand(self._gmp.limb_bits))
        return self.moduli[index]

    def __del__(self) -> None:
        for mpz in self.written:
            self._gmp.clear(ctypes.byref(mpz))


#: ``(digit index, offset of its column's entries)`` per comb step, most
#: significant step first: step ``i`` squares, then multiplies in the
#: entry of each column's ``i``-th digit.
_SCHEDULE = tuple(
    tuple((column * _BLOCK + step, column * _PER_COLUMN - 1) for column in range(_COLUMNS))
    for step in reversed(range(_BLOCK))
)
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _comb_digits(exponent: int) -> bytes:
    """Byte ``t`` is the ``_ROWS``-bit digit ``Σ_k bit(e, 32k + t) · 2^k``.

    An 8 × 32 bit transpose: one byte per exponent bit, then three folds
    that lay row ``k`` onto bit ``k`` of each byte (no carries: the bits
    are disjoint).
    """
    x = int.from_bytes(format(exponent, f"0{_COMB_BITS}b").encode().translate(_ZERO_ONE), "big")
    rows = _ROWS
    while rows > 1:
        rows //= 2
        width = rows * _ROW_BITS * 8
        x = (x & ((1 << width) - 1)) | (x >> width) << rows
    return x.to_bytes(_ROW_BITS, "little")


class _Comb:
    """One base's Lim–Lee table: entry ``(column, d)`` is
    ``base^(Σ_k d_k 2^(32k + 8·column)) mod modulus`` for ``d ∈ [1, 256)``.

    The limbs are one contiguous buffer; ``headers`` are ``mpz_t`` views
    into it (the modulus last), which libgmp only reads once built.
    """

    __slots__ = ("limbs", "headers", "first", "modulus")

    def __init__(self, gmp: "_Gmp", scratch: _Scratch, base: int, modulus: int) -> None:
        words = (modulus.bit_length() + 63) >> 6  # 64-bit words an entry spans
        self.limbs = (ctypes.c_uint64 * ((_ENTRIES + 1) * words))()
        self.headers = (_Mpz * (_ENTRIES + 1))()
        start, alloc = ctypes.addressof(self.limbs), words * 64 // gmp.limb_bits
        for i, header in enumerate(self.headers):
            # ``alloc`` covers the modulus, so libgmp never reallocates a view.
            header.alloc, header.limbs = alloc, start + 8 * words * i
        self.first = ctypes.addressof(self.headers)
        self.modulus = ctypes.c_void_p(self.first + _HEADER * _ENTRIES)
        for index, value in ((_ENTRIES, modulus), (0, base % modulus)):
            header = self.headers[index]
            header.size, raw = _limbs_of(value, gmp.limb_bits)
            ctypes.memmove(header.limbs, raw, len(raw))

        def entry(column: int, digit: int) -> int:
            return self.first + _HEADER * (column * _PER_COLUMN + digit - 1)

        product = scratch.product
        previous = entry(0, 1)
        for shift in range(1, _ROWS * _COLUMNS):  # base^(2^(8·shift)), shift = 4k + column
            row, column = divmod(shift, _COLUMNS)
            target = entry(column, 1 << row)
            for _ in range(_BLOCK):
                gmp.mul(product, previous, previous)
                gmp.tdiv_r(target, product, self.modulus)
                previous = target
        for column in range(_COLUMNS):
            for digit in range(3, 1 << _ROWS):
                if digit & (digit - 1):
                    low = digit & -digit
                    gmp.mul(product, entry(column, digit - low), entry(column, low))
                    gmp.tdiv_r(entry(column, digit), product, self.modulus)


class _Gmp:
    """``mpz_powm`` / ``mpz_invert`` on a ``CDLL``, whose calls release the
    GIL: two threads can be inside libgmp at once, so scratch is thread-local.
    The comb's ``mpz_mul`` / ``mpz_tdiv_r`` / ``mpz_set`` are ``PYFUNCTYPE``
    prototypes on a ``PyDLL`` and keep the GIL (:attr:`fixed_base` says
    whether they bound).  Operands and results cross as limbs, read and
    written in place: an exponentiation is one foreign call."""

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        mpz = ctypes.c_void_p
        for name, restype, argtypes in (
            ("init", None, (mpz,)),
            ("clear", None, (mpz,)),
            ("powm", None, (mpz, mpz, mpz, mpz)),
            ("invert", ctypes.c_int, (mpz, mpz, mpz)),
        ):
            function = getattr(lib, "__gmpz_" + name)
            function.restype, function.argtypes = restype, argtypes
            setattr(self, name, function)
        self.version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode("ascii")
        self.limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
        self._local = threading.local()
        self.fixed_base = self._bind_fixed_base(path)

    def _bind_fixed_base(self, path: str) -> bool:
        """Bind the comb's calls on a ``PyDLL`` and prove them on one table."""
        try:
            held = ctypes.PyDLL(path)
            # A comb evaluation must not let go of the GIL even once: a
            # thread that hands it over of its own accord takes it straight
            # back, and one waiting for it (a connection thread with a
            # request in hand) may wait out many evaluations in a row.
            for name, arity in (("mul", 3), ("tdiv_r", 3), ("set", 2)):
                prototype = ctypes.PYFUNCTYPE(None, *(ctypes.c_void_p,) * arity)
                setattr(self, name, prototype(("__gmpz_" + name, held)))
            m = (1 << 521) - 1
            comb = self.build_comb(FixedBase(3, m))
            exponents = (2, 3, m >> 300, (1 << _COMB_BITS) - 1)
            return all(self.comb_powmod(comb, e) == pow(3, e, m) for e in exponents)
        except (OSError, AttributeError, ValueError, ctypes.ArgumentError):
            return False

    def _scratch(self) -> _Scratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self)
        return scratch

    def powmod_many(self, jobs: list[tuple[int, int, int]]) -> list[int]:
        """``[pow(*job) for job in jobs]`` for jobs inside the domain
        :func:`powmod_many` sends here.

        Binds the calls once per batch, sets each distinct modulus once,
        and an exponent once for as many consecutive jobs as share it.
        No operand outlives the call.
        """
        scratch = self._scratch()
        base_z, exponent_z, result_z = scratch.base, scratch.exponent, scratch.result
        result, limb_bits = scratch.written[1], self.limb_bits
        powm, invert = self.powm, self.invert
        moduli: dict[int, ctypes.c_void_p] = {}
        exponent_now = None  # what ``exponent_z`` holds
        results = []
        for base, exponent, modulus in jobs:
            modulus_z = moduli.get(modulus)
            if modulus_z is None:
                operand = scratch.modulus(len(moduli))
                operand.set(modulus)
                modulus_z = moduli[modulus] = operand.address
            base_z.set(base)
            source = base_z.address
            if exponent < 0:
                if not invert(result_z, source, modulus_z):
                    raise ValueError("base is not invertible for the given modulus")
                source, exponent = result_z, -exponent
            if exponent > 1:
                if exponent != exponent_now:
                    exponent_z.set(exponent)
                    exponent_now = exponent
                powm(result_z, source, exponent_z.address, modulus_z)
            results.append(_value_of(result, limb_bits))
        return results

    def build_comb(self, base: FixedBase) -> _Comb:
        """The comb table of ``base`` modulo its own modulus."""
        return _Comb(self, self._scratch(), base, base.modulus)

    def comb_powmod(self, comb: _Comb, exponent: int) -> int:
        """``base^exponent mod modulus`` from ``comb``, for ``1 < exponent < 2^256``."""
        scratch = self._scratch()
        product, accumulator, modulus = scratch.product, scratch.result, comb.modulus
        mul, tdiv_r, first = self.mul, self.tdiv_r, comb.first
        digits = _comb_digits(exponent)
        started = False
        for step in _SCHEDULE:
            if started:
                mul(product, accumulator, accumulator)
                tdiv_r(accumulator, product, modulus)
            for index, offset in step:
                digit = digits[index]
                if digit:
                    if started:
                        mul(product, accumulator, first + _HEADER * (offset + digit))
                        tdiv_r(accumulator, product, modulus)
                    else:
                        self.set(accumulator, first + _HEADER * (offset + digit))
                        started = True
        return _value_of(scratch.written[1], self.limb_bits)


def _load_gmp() -> _Gmp | None:
    """Bind libgmp and prove the binding, or return ``None``."""
    path = ctypes.util.find_library("gmp")
    if path is None or sys.byteorder != "little":  # limbs are read as little-endian bytes
        return None
    try:
        gmp = _Gmp(path)
        m = (1 << 521) - 1  # prime, so 3 is invertible
        jobs = [(3, e, m) for e in (m >> 1, -1, -(m >> 1))]
        proven = gmp.powmod_many(jobs) == [pow(*job) for job in jobs]
    except (OSError, AttributeError, ValueError):
        return None
    return gmp if proven else None


_gmp = _load_gmp()
#: Live comb tables by ``(base, modulus)``, least recently used first;
#: ``None`` marks a table being built.
_tables: OrderedDict[tuple[int, int], _Comb | None] = OrderedDict()
_tables_lock = threading.Lock()


def _comb_for(base: FixedBase) -> _Comb | None:
    """``base``'s table, built on its :data:`_BUILD_AFTER`-th use without one."""
    key = (base, base.modulus)
    with _tables_lock:
        if key in _tables:
            _tables.move_to_end(key)
            return _tables[key]  # ``None`` while another thread builds it
        base.uses += 1
        if base.uses < _BUILD_AFTER:
            return None
        base.uses = 0
        _tables[key] = None
    comb = None
    try:
        comb = _gmp.build_comb(base)  # outside the lock: other keys go on meanwhile
    finally:
        with _tables_lock:
            _tables.pop(key, None)
            if comb is not None:
                _tables[key] = comb
                while len(_tables) > _MAX_TABLES:
                    _tables.popitem(last=False)
    return comb


def powmod_many(jobs: Iterable[tuple[int, int, int]]) -> list[int]:
    """``[pow(b, e, m) for b, e, m in jobs]``: same values, same exceptions
    (the first failing job's, in job order), faster.

    A job goes to libgmp only inside its domain (see the module
    docstring); a run of consecutive such jobs is one
    :meth:`_Gmp.powmod_many` call, evaluated before the comb or ``pow``
    takes the next job.
    """
    gmp = _gmp
    if gmp is None:
        return [pow(base, exponent, modulus) for base, exponent, modulus in jobs]
    results: list[int] = []
    run: list[tuple[int, int, int]] = []
    for base, exponent, modulus in jobs:
        if type(base) is FixedBase:
            if (
                gmp.fixed_base
                and type(exponent) is int
                and 1 < exponent < 1 << _COMB_BITS
                and type(modulus) is int
                and modulus == base.modulus
                and modulus >= _NATIVE_FLOOR
            ):
                if run:
                    results += gmp.powmod_many(run)
                    run = []
                comb = _comb_for(base)
                if comb is not None:
                    results.append(gmp.comb_powmod(comb, exponent))
                    continue
            base = int(base)
        if (
            type(base) is int
            and type(exponent) is int
            and type(modulus) is int
            and base >= 0
            and modulus >= _NATIVE_FLOOR
            and not 0 <= exponent <= 1
        ):
            run.append((base, exponent, modulus))
            continue
        if run:
            results += gmp.powmod_many(run)
            run = []
        results.append(pow(base, exponent, modulus))
    if run:
        results += gmp.powmod_many(run)
    return results


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``: same value, same exceptions, faster."""
    return powmod_many(((base, exponent, modulus),))[0]


def describe() -> str:
    """Which arithmetic this process runs: ``"gmp 6.2.1 (ctypes, fixed-base)"``,
    ``"gmp 6.2.1 (ctypes)"`` when the comb's calls did not bind, or ``"python"``."""
    if _gmp is None:
        return "python"
    return f"gmp {_gmp.version} (ctypes{', fixed-base' if _gmp.fixed_base else ''})"
