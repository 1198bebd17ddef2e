"""Fixed-base exponentiation for the group generators.

Profiling the proof-journey kernel shows modular exponentiation is the
dominant cost at scale: every key derivation, Schnorr signature, and
ElGamal challenge raises the *same* generator ``G`` to a fresh 160-bit
exponent, and CPython's ``pow`` re-does the square chain each time.

A fixed-base comb precomputes, once per base, the products of the base
raised to every pattern of one window per comb tooth.  An
exponentiation then costs one Python-level modmul per tooth plus
window lookups instead of ~200 square-and-multiply steps inside
``pow`` -- a ~6-10x speedup on the hottest single operation in the
codebase.

Only bases that are reused thousands of times deserve a table (the
8-bit table costs a few thousand modmuls to build, once per process).
There are two global tables, one per group generator: :func:`g_pow`
for ``G`` (keys, signatures, ElGamal) and :func:`h_pow` for ``H``.
Every hash-to-group element is ``H ** e`` for a public exponent ``e``,
so the VRF's exponentiations of round-message elements -- Algorand
sortition, every participant every round -- are ``H`` comb lookups
too.  Wider windows were measured and rejected: past 8 bits the table
stops fitting in cache and lookup misses eat the saved
multiplications.  Arbitrary bases (per-witness keys in signature
verification, a VRF proof's ``gamma``) still go through builtin
``pow``.
"""

from __future__ import annotations

from repro.crypto import group
from repro.obs.prof import staged

__all__ = ["FixedBaseComb", "g_pow", "h_pow"]

#: default window width in bits; 8 trades a small one-time table build
#: (21 teeth x 255 modmuls) for a fifth of the multiplications of
#: square-and-multiply -- it amortizes within the first millisecond of
#: any run.
WINDOW_BITS = 8

class FixedBaseComb:
    """Precomputed window tables for one base ``b`` modulo ``m``.

    ``tables[i][w] == b ** (w << (window_bits * i)) % m`` for every
    window value ``w``, so an exponent split into ``window_bits``-wide
    digits multiplies one table entry per digit -- no squarings at all.
    """

    __slots__ = ("base", "modulus", "tables", "window_bits", "_mask")

    def __init__(
        self,
        base: int,
        modulus: int,
        max_exponent_bits: int = 168,
        window_bits: int = WINDOW_BITS,
    ):
        self.base = base
        self.modulus = modulus
        self.window_bits = window_bits
        self._mask = (1 << window_bits) - 1
        windows = (max_exponent_bits + window_bits - 1) // window_bits
        tables: list[tuple[int, ...]] = []
        radix_power = base % modulus
        for _ in range(windows):
            row = [1] * (1 << window_bits)
            acc = 1
            for w in range(1, 1 << window_bits):
                acc = (acc * radix_power) % modulus
                row[w] = acc
            tables.append(tuple(row))
            # the next tooth's unit is this tooth's unit ** 2**window_bits
            radix_power = (acc * radix_power) % modulus
        self.tables = tables

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` (exponent must be >= 0)."""
        if exponent < 0:
            raise ValueError("fixed-base comb requires a non-negative exponent")
        window_bits = self.window_bits
        if exponent.bit_length() > window_bits * len(self.tables):
            raise ValueError("exponent exceeds the precomputed comb width")
        mod = self.modulus
        mask = self._mask
        result = 1
        index = 0
        tables = self.tables
        while exponent:
            window = exponent & mask
            if window:
                result = (result * tables[index][window]) % mod
            exponent >>= window_bits
            index += 1
        return result


def _make_comb(base: int) -> FixedBaseComb:
    """The comb for one shared generator: the OpenSSL-backed extension
    when the host can build and load it (see :mod:`repro.crypto.native`),
    else the pure-Python table.  The native comb is only trusted after
    its output matches the Python comb on a spread of exponents -- both
    paths compute the identical function, so which one serves a given
    process is unobservable in results.
    """
    reference = FixedBaseComb(base, group.P)
    from repro.crypto.native import load_native_comb

    native = load_native_comb(base, group.P)
    if native is None:
        return reference
    probes = [0, 1, 2, group.Q - 1, group.Q // 2]
    probes += [pow(1000003, i, group.Q) for i in range(1, 9)]
    try:
        if all(native.pow(e) == reference.pow(e) for e in probes):
            return native  # type: ignore[return-value]
    except RuntimeError:
        pass
    return reference


#: one lazily built comb per shared generator (``G``, ``H``)
_COMBS: dict[int, FixedBaseComb] = {}


@staged("crypto.comb")
def _comb_pow(base: int, exponent: int) -> int:
    comb = _COMBS.get(base)
    if comb is None:
        comb = _COMBS[base] = _make_comb(base)
    return comb.pow(exponent % group.Q)


def g_pow(exponent: int) -> int:
    """``pow(group.G, exponent, group.P)`` through the shared comb table.

    Exponents are reduced mod the subgroup order first (callers pass
    values already below ``Q``; the reduction keeps the function a
    drop-in for ``pow`` on any non-negative exponent).

    Under an ambient profiler every call is the ``crypto.comb`` stage --
    fixed-base exponentiation is the kernel's dominant arithmetic cost,
    and future heavy crypto (ZK-PoL) will be budgeted against it.
    """
    return _comb_pow(group.G, exponent)


def h_pow(exponent: int) -> int:
    """``pow(group.H, exponent, group.P)``: :func:`g_pow` for ``H``.

    Every hash-to-group element is ``H ** e`` for a public ``e``
    (:func:`repro.crypto.group.hash_to_exponent`), so raising one to a
    secret ``x`` is ``h_pow(e * x % Q)`` -- the VRF's per-round
    exponentiations all land on this one table.
    """
    return _comb_pow(group.H, exponent)
