"""The no-cyclic-garbage guard: the invariant behind the collector pause.

``drive`` and the facade's waves run with automatic garbage collection
paused (:func:`repro.chain.base.collector_paused`).  That is exact only
while a wave makes no reference cycles that die inside it, because then a
collector pass there can only rescan live objects.  :func:`guarded_waves`
checks it: every outermost wave call is preceded by ``gc.collect()``, runs
with the collector off, and must leave ``gc.collect()`` nothing
unreachable to find.

``tests/bench/test_no_cyclic_garbage.py`` runs it on small campaigns;
the CI perf-smoke job runs :func:`check_traced` at 1,000 users on both
chain families, so the invariant is checked at trajectory scale too.
This module needs no pytest for that.
"""

import gc
from contextlib import contextmanager

from repro.bench.simulation import run_traced_journeys
from repro.chain import base
from repro.core.system import ProofOfLocationSystem
from repro.reach import runtime

#: (owner, attribute) of every wave; ``drive`` is bound by name in both
#: modules that call it.
WAVES = (
    (ProofOfLocationSystem, "submit_many"),
    (ProofOfLocationSystem, "fund_contracts"),
    (ProofOfLocationSystem, "verify_many"),
    (ProofOfLocationSystem, "light_verify_many"),
    (base, "drive"),
    (runtime, "drive"),
)


@contextmanager
def guarded_waves():
    """Patch every wave to count its cyclic garbage.

    Yields the list of ``(wave, unreachable)`` pairs, one per outermost
    call: a wave nested in another (``drive`` under ``submit_many``) is
    part of the outer one's count.
    """
    checked: list[tuple[str, int]] = []
    depth = [0]

    def guard(name, wave):
        def guarded(*args, **kwargs):
            if depth[0]:
                return wave(*args, **kwargs)
            gc.collect()
            was_enabled = gc.isenabled()
            gc.disable()
            depth[0] += 1
            try:
                result = wave(*args, **kwargs)
                unreachable = gc.collect()
            finally:
                depth[0] -= 1
                if was_enabled:
                    gc.enable()
            checked.append((name, unreachable))
            return result

        return guarded

    originals = [(owner, name, getattr(owner, name)) for owner, name in WAVES]
    for owner, name, wave in originals:
        setattr(owner, name, guard(name, wave))
    try:
        yield checked
    finally:
        for owner, name, wave in originals:
            setattr(owner, name, wave)


def assert_no_garbage(checked: list[tuple[str, int]], expected: set[str]) -> None:
    names = {name for name, _ in checked}
    assert expected <= names, f"waves never called: {sorted(expected - names)}"
    garbage = [(name, count) for name, count in checked if count]
    assert not garbage, f"waves left cyclic garbage: {garbage}"


def check_traced(network: str, users: int, batch_size: int | None) -> int:
    """Guard one seeded traced-journey campaign; return the waves checked."""
    with guarded_waves() as checked:
        run_traced_journeys(network, users, seed=1, batch_size=batch_size)
    expected = {"submit_many", "fund_contracts", "verify_many"}
    if batch_size:
        expected.add("light_verify_many")
    assert_no_garbage(checked, expected)
    return len(checked)
