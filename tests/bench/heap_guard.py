"""The heap guard: what a facade campaign leaves live per prover.

A seeded :func:`run_traced_journeys` campaign (seed 1, every tenth
journey traced) runs in a fresh interpreter under ``tracemalloc``,
after a one-group warm-up campaign.  Right after its last wave
(``verify_many``, or ``light_verify_many`` when batched) the guard runs
``gc.collect()`` and counts the tracked objects and traced bytes the
campaign added.  Divided by the provers, that is the heap each prover leaves
behind while everything a later read needs is still reachable.

:data:`PINNED` holds the counts of the current retention policy (see
DESIGN.md, "Retention policy"); a campaign that keeps more fails.
``tests/bench/test_heap_guard.py`` checks 256 users under two hash
seeds; the CI perf-smoke job checks 1,000 users (992 batched).  This
module needs no pytest for that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: (network, users, batch size) -> (tracked objects, traced bytes) per
#: prover after the last wave, rounded up
PINNED = {
    ("goerli", 256, None): (31.973, 9017),
    ("goerli", 256, 16): (20.918, 5336),
    ("algorand-testnet", 256, None): (32.352, 9368),
    ("algorand-testnet", 256, 16): (21.848, 5736),
    ("goerli", 1000, None): (25.427, 8329),
    ("goerli", 992, 16): (15.171, 4556),
    ("algorand-testnet", 1000, None): (25.968, 8593),
    ("algorand-testnet", 992, 16): (15.568, 4772),
}

#: traced bytes per prover two runs may differ by.  Object counts repeat
#: exactly; traced bytes repeat to within one small block per campaign
#: (about 60 bytes seen, under one hash seed or two).
BYTES_JITTER = 1.0


def count(network: str, users: int, batch_size: int | None) -> dict[str, float]:
    """Run the warm-up and the measured campaign here; per-prover counts.

    Needs a fresh interpreter (see :func:`measure`): it starts
    ``tracemalloc`` and patches the last wave to count after it.
    """
    import gc
    import tracemalloc

    from repro.bench.simulation import run_traced_journeys
    from repro.core.system import ProofOfLocationSystem

    final = "light_verify_many" if batch_size else "verify_many"
    wave = getattr(ProofOfLocationSystem, final)
    last: list[int] = []

    def counted(*args, **kwargs):
        result = wave(*args, **kwargs)
        gc.collect()
        last[:] = [len(gc.get_objects()), tracemalloc.get_traced_memory()[0]]
        return result

    setattr(ProofOfLocationSystem, final, counted)
    tracemalloc.start()
    # One location group first loads what every campaign shares (lazy
    # imports, the native comb, compile caches), so the count is per prover.
    run_traced_journeys(network, batch_size or 4, seed=2, sample_every=10, batch_size=batch_size)
    gc.collect()
    objects, traced = len(gc.get_objects()), tracemalloc.get_traced_memory()[0]
    run_traced_journeys(network, users, seed=1, sample_every=10, batch_size=batch_size)
    return {"objects": (last[0] - objects) / users, "bytes": (last[1] - traced) / users}


def measure(network: str, users: int, batch_size: int | None, hash_seed: int = 0) -> tuple[float, float]:
    """Tracked objects and traced bytes per prover left after the last wave.

    ``users`` must be whole location groups (see ``campaign_users``).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-m", "tests.bench.heap_guard", network, str(users), str(batch_size or 0)],
        capture_output=True, text=True, check=True, env=env, cwd=ROOT,
    )
    counts = json.loads(out.stdout)
    return counts["objects"], counts["bytes"]


def check(network: str, users: int, batch_size: int | None, hash_seed: int = 0) -> tuple[float, float]:
    """Measure one campaign and fail if it keeps more than :data:`PINNED`."""
    objects, nbytes = measure(network, users, batch_size, hash_seed)
    pinned_objects, pinned_bytes = PINNED[(network, users, batch_size)]
    assert objects <= pinned_objects and nbytes <= pinned_bytes, (
        f"{network} {users} users batch {batch_size}: {objects:.3f} objects and {nbytes:.1f} bytes "
        f"per prover exceed the pinned {pinned_objects:.3f} and {pinned_bytes:.1f}"
    )
    return objects, nbytes


if __name__ == "__main__":
    print(json.dumps(count(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) or None)))
