"""The heap guard: what a facade campaign leaves live per prover.

A seeded :func:`run_traced_journeys` campaign (seed 1, every tenth
journey traced) runs in a fresh interpreter under ``tracemalloc``,
after a one-group warm-up campaign.  Right after its last wave
(``verify_many``, or ``light_verify_many`` when batched) the guard
collects until the tracked-object count stops changing (see
:func:`_settled_objects`) and counts the tracked objects and traced
bytes the campaign added.  Divided by the provers, that is the heap
each prover leaves behind while everything a later read needs is still
reachable.

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
    ("goerli", 256, None): (28.477, 9017),
    ("goerli", 256, 16): (19.262, 5336),
    ("algorand-testnet", 256, None): (30.856, 9368),
    ("algorand-testnet", 256, 16): (20.559, 5736),
    ("goerli", 1000, None): (23.134, 8329),
    ("goerli", 992, 16): (13.878, 4556),
    ("algorand-testnet", 1000, None): (24.675, 8593),
    ("algorand-testnet", 992, 16): (14.462, 4772),
}

#: traced bytes per prover two runs may differ by.  Object counts repeat
#: exactly; traced bytes repeat to within one small block per campaign
#: (about 60 bytes seen, under one hash seed or two).
BYTES_JITTER = 1.0


def _settled_objects() -> int:
    """Tracked objects once ``gc.collect()`` stops changing their count.

    A collection untracks a tuple only if its members are already
    untracked, so a tuple of tuples drops out one pass after its members
    do; a single pass would count it or not depending on what came
    before.
    """
    import gc

    objects = -1
    while True:
        gc.collect()
        settled, objects = objects, len(gc.get_objects())
        if objects == settled:
            return objects


def count(network: str, users: int, batch_size: int | None) -> dict[str, float]:
    """Run the warm-up and the measured campaign here; per-prover counts.

    Needs a fresh interpreter (see :func:`measure`): it starts
    ``tracemalloc`` and patches the last wave to count after it.
    """
    import tracemalloc

    from repro.bench.simulation import run_traced_journeys
    from repro.core.system import ProofOfLocationSystem

    final = "light_verify_many" if batch_size else "verify_many"
    wave = getattr(ProofOfLocationSystem, final)
    last: list[int] = []

    def counted(*args, **kwargs):
        result = wave(*args, **kwargs)
        last[:] = [_settled_objects(), tracemalloc.get_traced_memory()[0]]
        return result

    setattr(ProofOfLocationSystem, final, counted)
    tracemalloc.start()
    # One location group first loads what every campaign shares (lazy
    # imports, the native comb, compile caches), so the count is per prover.
    run_traced_journeys(network, batch_size or 4, seed=2, sample_every=10, batch_size=batch_size)
    objects, traced = _settled_objects(), tracemalloc.get_traced_memory()[0]
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
