"""Host calibration: how fast is this machine right now?

A fixed pure-Python kernel -- a SHA-256 chain, 2048-bit modular
exponentiation, and dict and sort churn -- exercises the interpreter
paths the simulator spends its time in (hashing, big-integer crypto,
dict-heavy bookkeeping).  It imports nothing from ``repro``, so a change
to the system under test can never move it.

A *probe* is the faster of two quarter-size kernel passes (about
0.1 s).  A run probes before every process it starts, each process
probes once it is set up, and campaigns probe between spans at most
every :data:`PROBE_EVERY_S` seconds: a run gathers 10 to 20 probes.
Its wall-clock metrics are reported normalised by the median probe,
``setup_s * REFERENCE_S / median`` and ``proofs_per_s * median /
REFERENCE_S`` (``perf/run.py``).  On a shared host whose speed drifts
between runs, that cancels the drift the kernel sees (CPU frequency, a
neighbour's sustained load); it cannot cancel contention that slows the
simulator's memory traffic and not the kernel's, nor a burst that hits
a campaign but no probe.
"""

from __future__ import annotations

import gc
import hashlib
import time

#: a probe's value on the host the benchmark was calibrated on (2-vCPU
#: Intel Xeon VM, CPython 3.11).  Only ratios to it matter; it keeps
#: normalised numbers close to raw ones on that host.
REFERENCE_S = 0.055
#: the least campaign wall time between two probes in a campaign
PROBE_EVERY_S = 2.0

_MODULUS = (1 << 2048) - 1942289  # any odd 2048-bit modulus will do
_EXPONENT = (1 << 2047) + 12345


def kernel(scale: int = 4) -> int:
    """One pass of the calibration workload (``scale`` quarters); returns a checksum."""
    digest = b"perf-calibration"
    for _ in range(15_000 * scale):
        digest = hashlib.sha256(digest).digest()
    value = int.from_bytes(digest, "big")
    for _ in range(scale):
        value = pow(value, _EXPONENT, _MODULUS)
    table: dict[int, int] = {}
    for index in range(50_000 * scale):
        table[(index * 2_654_435_761) % 1_000_003] = index
    ordered = sorted(table.items(), key=lambda item: (item[1] % 97, item[0]))
    return (value ^ ordered[0][0] ^ len(ordered)) & 0xFFFF


def probe() -> float:
    """Wall seconds of the faster of two quarter-size kernel passes.

    The cyclic garbage collector is paused meanwhile: inside a campaign
    its passes would walk the campaign's heap and time that, not the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            kernel(scale=1)
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


if __name__ == "__main__":
    print(f"{probe():.6f}")
