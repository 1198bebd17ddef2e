"""Optional OpenSSL-backed comb exponentiation (see ``_combext.c``).

``_combext.c`` is a CPython extension module, built on demand with the
host C toolchain against the interpreter's headers and the libcrypto
it already loads for ``hashlib`` -- no new dependency, no build step in
the install path.  Everything here is best-effort: no compiler, no
Python or OpenSSL headers, or a failed load give None, and
:mod:`repro.crypto.fastexp` serves the pure-Python comb instead.

Set ``REPRO_NO_NATIVE=1`` to skip the extension entirely (the kernel
then runs on the pure-Python path; results are identical either way).
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import threading
from pathlib import Path
from types import ModuleType
from typing import Any

__all__ = ["load_native_comb"]

_SOURCE = Path(__file__).with_name("_combext.c")
#: build artifacts live next to the source, keyed by source hash and
#: interpreter ABI so a changed .c file never picks up a stale object
#: (dir is gitignored).
_BUILD_DIR = Path(__file__).with_name("_build")


def _build() -> Path | None:
    source = _SOURCE.read_bytes()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # sysconfig's EXT_SUFFIX
    artifact = _BUILD_DIR / f"_combext-{hashlib.sha256(source).hexdigest()[:16]}{suffix}"
    if artifact.exists():
        return artifact
    import subprocess  # only a build needs these
    import sysconfig

    _BUILD_DIR.mkdir(exist_ok=True)
    # one scratch file per thread: two may reach their first comb together
    scratch = artifact.with_name(f"{artifact.name}.tmp{os.getpid()}-{threading.get_ident()}")
    include = sysconfig.get_paths()["include"]
    for cc in ("cc", "gcc", "clang"):
        try:
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", f"-I{include}", "-o", str(scratch), str(_SOURCE), "-lcrypto"],
                capture_output=True,
                timeout=120,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
            continue
        os.replace(scratch, artifact)  # atomic under concurrent builders
        return artifact
    scratch.unlink(missing_ok=True)
    return None


@functools.cache
def _load() -> ModuleType | None:
    artifact = None if os.environ.get("REPRO_NO_NATIVE") else _build()
    spec = artifact and importlib.util.spec_from_file_location("repro.crypto._combext", artifact)
    if not (spec and spec.loader):
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module


def load_native_comb(base: int, modulus: int) -> Any | None:
    """The extension's comb for ``base`` mod ``modulus`` (exponents below
    ``2**168``), or None when the extension can't be used.  Its ``pow``
    is ``FixedBaseComb.pow``, down to the ``ValueError`` out of range.
    """
    module = _load()
    if module is None:
        return None
    base_be, mod_be = (v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in (base, modulus))
    try:
        return module.Comb(base_be, mod_be, 168)
    except (RuntimeError, MemoryError, ValueError):
        return None
