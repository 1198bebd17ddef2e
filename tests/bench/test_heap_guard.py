"""A facade campaign keeps no more heap per prover than the retention policy.

See :mod:`tests.bench.heap_guard` for the guard.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from tests.bench.heap_guard import BYTES_JITTER, check


@pytest.mark.parametrize("batch_size", [None, 16], ids=["unbatched", "batch16"])
@pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
def test_heap_per_prover_after_the_last_wave(network, batch_size):
    # Both hash seeds at once: one child process each.
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda seed: check(network, 256, batch_size, seed), (0, 1)))
    (objects_0, bytes_0), (objects_1, bytes_1) = runs
    assert objects_0 == objects_1
    assert abs(bytes_0 - bytes_1) <= BYTES_JITTER

