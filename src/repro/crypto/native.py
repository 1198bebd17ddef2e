"""Optional OpenSSL-backed comb exponentiation (see ``_combext.c``).

The extension is built on demand with the host C toolchain and linked
against the libcrypto the interpreter already loads for ``hashlib`` --
no new dependency, no build step in the install path.  Everything here
is best-effort: no compiler, no headers, a failed load or a failed
arithmetic cross-check against builtin ``pow`` all degrade silently to
the pure-Python comb in :mod:`repro.crypto.fastexp`.

Set ``REPRO_NO_NATIVE=1`` to skip the extension entirely (the kernel
then runs on the pure-Python path; results are identical either way).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
from pathlib import Path

__all__ = ["NativeComb", "load_native_comb"]

_SOURCE = Path(__file__).with_name("_combext.c")
#: build artifacts live next to the source, keyed by source hash so a
#: changed .c file never picks up a stale object (dir is gitignored).
_BUILD_DIR = Path(__file__).with_name("_build")

_lib: ctypes.CDLL | None = None
_lib_failed = False
#: BN_CTX and the scratch BIGNUMs inside one comb are not thread-safe;
#: the kernel is effectively single-threaded but the bench has a
#: Thread-based variant, so every native call takes this (uncontended,
#: ~0.1us) lock.
_LOCK = threading.Lock()


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        try:
            subprocess.run(
                [name, "--version"], capture_output=True, timeout=10, check=True
            )
            return name
        except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
            continue
    return None


def _build() -> Path | None:
    source = _SOURCE.read_bytes()
    artifact = _BUILD_DIR / f"combext-{hashlib.sha256(source).hexdigest()[:16]}.so"
    if artifact.exists():
        return artifact
    cc = _compiler()
    if cc is None:
        return None
    _BUILD_DIR.mkdir(exist_ok=True)
    scratch = artifact.with_suffix(f".tmp{os.getpid()}.so")
    try:
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", str(scratch), str(_SOURCE), "-lcrypto"],
            capture_output=True,
            timeout=120,
            check=True,
        )
        os.replace(scratch, artifact)  # atomic under concurrent builders
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        scratch.unlink(missing_ok=True)
        return None
    return artifact


def _load() -> ctypes.CDLL | None:
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    if os.environ.get("REPRO_NO_NATIVE"):
        _lib_failed = True
        return None
    artifact = _build()
    if artifact is None:
        _lib_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(artifact))
        lib.repro_comb_new.restype = ctypes.c_void_p
        lib.repro_comb_new.argtypes = [
            ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_int,
        ]
        lib.repro_comb_pow.restype = ctypes.c_int
        lib.repro_comb_pow.argtypes = [
            ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
        ]
        lib.repro_comb_free.restype = None
        lib.repro_comb_free.argtypes = [ctypes.c_void_p]
    except (OSError, AttributeError):
        _lib_failed = True
        return None
    _lib = lib
    return lib


class NativeComb:
    """C-side fixed-base comb; same contract as ``FixedBaseComb.pow``."""

    __slots__ = ("_lib", "_comb", "_exp_len", "_mod_len", "_out")

    def __init__(self, base: int, modulus: int, max_exponent_bits: int = 168):
        lib = _load()
        if lib is None:
            raise RuntimeError("native comb unavailable")
        self._lib = lib
        self._mod_len = (modulus.bit_length() + 7) // 8
        self._exp_len = (max_exponent_bits + 7) // 8
        mod_be = modulus.to_bytes(self._mod_len, "big")
        base_be = base.to_bytes((base.bit_length() + 7) // 8 or 1, "big")
        self._out = ctypes.create_string_buffer(self._mod_len)
        self._comb = lib.repro_comb_new(
            mod_be, self._mod_len, base_be, len(base_be), max_exponent_bits
        )
        if not self._comb:
            raise RuntimeError("native comb construction failed")

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` (exponent must be >= 0)."""
        if exponent < 0:
            raise ValueError("fixed-base comb requires a non-negative exponent")
        exp_be = exponent.to_bytes(self._exp_len, "big")
        out = self._out
        with _LOCK:
            ok = self._lib.repro_comb_pow(
                self._comb, exp_be, self._exp_len, out, self._mod_len
            )
            if not ok:
                raise RuntimeError("native comb pow failed")
            return int.from_bytes(out.raw, "big")

    def __del__(self) -> None:
        comb = getattr(self, "_comb", None)
        if comb:
            self._lib.repro_comb_free(comb)
            self._comb = None


def load_native_comb(base: int, modulus: int) -> NativeComb | None:
    """A :class:`NativeComb`, or None when the extension can't be used."""
    try:
        return NativeComb(base, modulus)
    except (RuntimeError, OverflowError, ValueError):
        return None
