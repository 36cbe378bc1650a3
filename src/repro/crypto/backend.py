"""The one modular-exponentiation funnel: libgmp when present, ``pow`` otherwise.

The paper's prototype is GMP-backed C.  At import this module looks for
the shared library, binds ``mpz_powm`` / ``mpz_invert`` through stdlib
:mod:`ctypes` and checks one known answer of each against builtin
``pow``; on any failure (no library, a missing symbol, a wrong answer)
:func:`powmod` simply *is* ``pow``.  There is no switch: the choice is
made from what the process can observe, and :func:`describe` reports it.

Contract: ``powmod(b, e, m)`` equals ``pow(b, e, m)`` on every input
and raises what it raises.  GMP *aborts the process* on a zero modulus
or a non-invertible base under a negative exponent where Python raises
``ValueError``, so the native path is taken only where it is safe and
worth the ≈ 8 µs a round of foreign calls costs: plain ``int``
arguments, ``base ≥ 0``, ``modulus ≥`` :data:`_NATIVE_FLOOR`, exponent
``≥ 2`` (``mpz_powm``) or negative (``mpz_invert`` with its return code
checked, then ``mpz_powm`` by ``|exponent|`` unless that is 1 — one
import and one export either way).

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
once either, the result's export included: a thread that lets go of the
GIL of its own accord takes it straight back, and one waiting for it
would wait out evaluation after evaluation; held throughout, the GIL
goes to a waiting thread at the next switch interval.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import operator
import threading
from collections import OrderedDict

__all__ = ["FixedBase", "powmod", "describe"]

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


class _Scratch:
    """One thread's base, exponent, modulus and result ``mpz_t``; freed with the thread."""

    def __init__(self, gmp: "_Gmp") -> None:
        self._clear = gmp.clear
        self.mpzs = tuple(_Mpz() for _ in range(4))
        for mpz in self.mpzs:
            gmp.init(mpz)
        #: The base and result ``mpz_t`` as addresses, for the comb's calls.
        self.product, self.accumulator = (
            ctypes.c_void_p(ctypes.addressof(self.mpzs[i])) for i in (0, 3)
        )

    def __del__(self) -> None:
        for mpz in self.mpzs:
            self._clear(mpz)


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

    __slots__ = ("limbs", "headers", "first", "modulus", "modulus_bytes")

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
        self.modulus_bytes = (modulus.bit_length() + 7) >> 3
        gmp._set(self.headers[_ENTRIES], modulus)

        def entry(column: int, digit: int) -> int:
            return self.first + _HEADER * (column * _PER_COLUMN + digit - 1)

        product = scratch.product
        gmp._set(self.headers[0], base % modulus)
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
    The comb's ``mpz_mul`` / ``mpz_tdiv_r`` / ``mpz_set`` and its result's
    ``mpz_export`` go through a ``PyDLL`` and keep the GIL
    (:attr:`fixed_base` says whether they bound)."""

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        mpz, size_t, c_int = ctypes.POINTER(_Mpz), ctypes.c_size_t, ctypes.c_int
        for name, restype, argtypes in (
            ("init", None, (mpz,)),
            ("clear", None, (mpz,)),
            ("import_", None, (mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p)),
            ("export", ctypes.c_void_p,
             (ctypes.c_char_p, ctypes.POINTER(size_t), c_int, size_t, c_int, size_t, mpz)),
            ("powm", None, (mpz, mpz, mpz, mpz)),
            ("invert", c_int, (mpz, mpz, mpz)),
        ):
            function = getattr(lib, "__gmpz_" + name.rstrip("_"))  # ``import`` is a keyword
            function.restype, function.argtypes = restype, argtypes
            setattr(self, name, function)
        self._export_types = (ctypes.c_void_p, self.export.argtypes)
        self.version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode("ascii")
        self._local = threading.local()
        self.fixed_base = self._bind_fixed_base(path)

    def _bind_fixed_base(self, path: str) -> bool:
        """Bind the comb's calls on a ``PyDLL`` and prove them on one table."""
        try:
            held = ctypes.PyDLL(path)
            for name, arity in (("mul", 3), ("tdiv_r", 3), ("set", 2)):
                function = getattr(held, "__gmpz_" + name)
                function.restype, function.argtypes = None, (ctypes.c_void_p,) * arity
                setattr(self, name, function)
            # A comb evaluation must not let go of the GIL even once: a
            # thread that hands it over of its own accord takes it straight
            # back, and one waiting for it (a connection thread with a
            # request in hand) may wait out many evaluations in a row.
            self.held_export = getattr(held, "__gmpz_export")
            self.held_export.restype, self.held_export.argtypes = self._export_types
            self.limb_bits = ctypes.c_int.in_dll(held, "__gmp_bits_per_limb").value
            m = (1 << 521) - 1
            comb = self.build_comb(FixedBase(3, m))
            exponents = (2, 3, m >> 300, (1 << _COMB_BITS) - 1)
            return all(self.comb_powmod(comb, e) == pow(3, e, m) for e in exponents)
        except (OSError, AttributeError, ValueError, ctypes.ArgumentError):
            return False

    def _set(self, mpz: _Mpz, value: int) -> None:
        raw = value.to_bytes((value.bit_length() + 7) >> 3, "little")
        self.import_(mpz, len(raw), -1, 1, 0, 0, raw)

    def _scratch(self) -> _Scratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self)
        return scratch

    def _get(self, mpz: _Mpz, length: int, export=None) -> int:
        """The value of ``mpz``, at most ``length`` bytes long."""
        out = ctypes.create_string_buffer(length)
        count = ctypes.c_size_t()
        (export or self.export)(out, count, -1, 1, 0, 0, mpz)
        return int.from_bytes(out.raw[: count.value], "little")

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``pow(base, exponent, modulus)`` inside the domain :func:`powmod` admits."""
        base_z, exponent_z, modulus_z, result_z = self._scratch().mpzs
        self._set(base_z, base)
        self._set(modulus_z, modulus)
        if exponent < 0:
            if not self.invert(result_z, base_z, modulus_z):
                raise ValueError("base is not invertible for the given modulus")
            base_z, exponent = result_z, -exponent
        if exponent > 1:
            self._set(exponent_z, exponent)
            self.powm(result_z, base_z, exponent_z, modulus_z)
        return self._get(result_z, (modulus.bit_length() + 7) >> 3)  # result < modulus

    def build_comb(self, base: FixedBase) -> _Comb:
        """The comb table of ``base`` modulo its own modulus."""
        return _Comb(self, self._scratch(), base, base.modulus)

    def comb_powmod(self, comb: _Comb, exponent: int) -> int:
        """``base^exponent mod modulus`` from ``comb``, for ``1 < exponent < 2^256``."""
        scratch = self._scratch()
        product, accumulator, modulus = scratch.product, scratch.accumulator, comb.modulus
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
        return self._get(scratch.mpzs[3], comb.modulus_bytes, self.held_export)


def _load_gmp() -> _Gmp | None:
    """Bind libgmp and prove the binding, or return ``None``."""
    path = ctypes.util.find_library("gmp")
    if path is None:
        return None
    try:
        gmp = _Gmp(path)
        m = (1 << 521) - 1  # prime, so 3 is invertible
        proven = all(gmp.powmod(3, e, m) == pow(3, e, m) for e in (m >> 1, -1, -(m >> 1)))
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


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``: same value, same exceptions, faster."""
    gmp = _gmp
    if type(base) is FixedBase:
        if (
            gmp is not None
            and gmp.fixed_base
            and type(exponent) is int
            and 1 < exponent < 1 << _COMB_BITS
            and type(modulus) is int
            and modulus == base.modulus
            and modulus >= _NATIVE_FLOOR
        ):
            comb = _comb_for(base)
            if comb is not None:
                return gmp.comb_powmod(comb, exponent)
        base = int(base)
    if (
        gmp is None
        or type(base) is not int
        or type(exponent) is not int
        or type(modulus) is not int
        or base < 0
        or modulus < _NATIVE_FLOOR
        or 0 <= exponent <= 1
    ):
        return pow(base, exponent, modulus)
    return gmp.powmod(base, exponent, modulus)


def describe() -> str:
    """Which arithmetic this process runs: ``"gmp 6.2.1 (ctypes, fixed-base)"``,
    ``"gmp 6.2.1 (ctypes)"`` when the comb's calls did not bind, or ``"python"``."""
    if _gmp is None:
        return "python"
    return f"gmp {_gmp.version} (ctypes{', fixed-base' if _gmp.fixed_base else ''})"
