"""No wave makes cyclic garbage, so pausing the collector in one is exact.

See :mod:`tests.bench.wave_garbage` for the guard.
"""

import pytest

from repro.bench.simulation import run_simulation
from repro.chain import base
from repro.faults import FaultPlan
from tests.bench.wave_garbage import assert_no_garbage, check_traced, guarded_waves

FAMILIES = ("goerli", "algorand-testnet")


@pytest.mark.parametrize("batch_size", [None, 16], ids=["unbatched", "batch16"])
@pytest.mark.parametrize("users", [64, 256])
@pytest.mark.parametrize("network", FAMILIES)
def test_traced_journey_waves(network, users, batch_size):
    check_traced(network, users, batch_size)


@pytest.mark.parametrize("concurrent", [False, True], ids=["serial", "concurrent"])
@pytest.mark.parametrize("users", [8, 32])
@pytest.mark.parametrize("network", FAMILIES)
def test_chaos_simulation_drives(network, users, concurrent):
    with guarded_waves() as checked:
        run_simulation(
            network, users, seed=1, concurrent=concurrent, faults=FaultPlan.generate(7)
        )
    assert_no_garbage(checked, {"drive"})


def test_the_guard_sees_a_cycle(monkeypatch):
    """A wave that drops a reference cycle fails the guard."""

    def leaky_drive(queue, until, max_steps=0, chain=None):
        cycle: list = []
        cycle.append(cycle)

    monkeypatch.setattr(base, "drive", leaky_drive)
    with guarded_waves() as checked:
        base.drive(None, lambda: True)
    assert checked == [("drive", 1)]
    with pytest.raises(AssertionError, match="cyclic garbage"):
        assert_no_garbage(checked, {"drive"})
