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
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading

__all__ = ["powmod", "describe"]

#: Smallest modulus sent to libgmp (256 bits): measured ≈ 9× faster than
#: ``pow`` there and 10–12× from 512 to 4096 bits; ``x**-1`` breaks even near
#: 100 bits.  Exponents 0 and 1 are a reduction (0.1 µs in ``pow``) and stay.
_NATIVE_FLOOR = 1 << 255


class _Mpz(ctypes.Structure):
    """``__mpz_struct``, GMP's public integer header."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


class _Scratch:
    """One thread's base, exponent, modulus and result ``mpz_t``; freed with the thread."""

    def __init__(self, gmp: "_Gmp") -> None:
        self._clear = gmp.clear
        self.mpzs = tuple(_Mpz() for _ in range(4))
        for mpz in self.mpzs:
            gmp.init(mpz)

    def __del__(self) -> None:
        for mpz in self.mpzs:
            self._clear(mpz)


class _Gmp:
    """``mpz_powm`` / ``mpz_invert`` on a ``CDLL``, whose calls release the
    GIL: two threads can be inside libgmp at once, so scratch is thread-local."""

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
        self.version = ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode("ascii")
        self._local = threading.local()

    def _set(self, mpz: _Mpz, value: int) -> None:
        raw = value.to_bytes((value.bit_length() + 7) >> 3, "little")
        self.import_(mpz, len(raw), -1, 1, 0, 0, raw)

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``pow(base, exponent, modulus)`` inside the domain :func:`powmod` admits."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self)
        base_z, exponent_z, modulus_z, result_z = scratch.mpzs
        self._set(base_z, base)
        self._set(modulus_z, modulus)
        if exponent < 0:
            if not self.invert(result_z, base_z, modulus_z):
                raise ValueError("base is not invertible for the given modulus")
            base_z, exponent = result_z, -exponent
        if exponent > 1:
            self._set(exponent_z, exponent)
            self.powm(result_z, base_z, exponent_z, modulus_z)
        out = ctypes.create_string_buffer((modulus.bit_length() + 7) >> 3)  # result < modulus
        count = ctypes.c_size_t()
        self.export(out, count, -1, 1, 0, 0, result_z)
        return int.from_bytes(out.raw[: count.value], "little")


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


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``: same value, same exceptions, faster."""
    gmp = _gmp
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
    """Which arithmetic this process runs: ``"gmp 6.2.1 (ctypes)"`` or ``"python"``."""
    return "python" if _gmp is None else f"gmp {_gmp.version} (ctypes)"
