"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is generated up front from a single seed and then
treated as read-only by the injectors, so the same seed always yields
the same fault sequence -- byte-identical simulation output across runs
is the property the chaos harness asserts.  The plan mixes three fault
families:

- **chain faults** -- transient submission rejections (by submission
  ordinal), and timed windows of receipt delays, block-production
  stalls and base-fee spikes;
- **DHT faults** -- a number of crash/restart churn rounds replayed by
  the chaos harness against the hypercube;
- **radio faults** -- Bluetooth range flaps (by send ordinal) that
  shrink the channel's effective range.

Generation is pure :mod:`random` from a private ``Random(seed)``
stream; nothing here reads wall-clock time or global RNG state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.faults.policy import RetryPolicy

#: salt mixed into the user seed so the plan stream never collides with
#: the simulation's own ``Random(seed)`` streams.
_PLAN_SALT = 0x5DEECE66D


@dataclass(frozen=True)
class FaultWindow:
    """One timed fault: ``kind`` is active on ``[start, end)``."""

    kind: str
    start: float
    end: float
    #: kind-specific intensity: base-fee multiplier for ``fee_spike``,
    #: extra seconds per block for ``block_stall``, extra seconds per
    #: confirmation for ``receipt_delay``.
    magnitude: float

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault schedule for one chaos run."""

    seed: int
    #: submission ordinals (0-based, per chain) rejected transiently.
    reject_submissions: frozenset[int] = frozenset()
    #: timed chain-fault windows, sorted by start time.
    windows: tuple[FaultWindow, ...] = ()
    #: crash/restart rounds the chaos harness replays on the DHT.
    churn_rounds: int = 0
    #: radio-send ordinal ranges ``(start, end)`` where Bluetooth range
    #: collapses (half-open, per channel).
    radio_flaps: tuple[tuple[int, int], ...] = ()
    policy: RetryPolicy = field(default_factory=RetryPolicy)

    def window_at(self, kind: str, t: float) -> FaultWindow | None:
        """The active window of ``kind`` at sim time ``t``, if any."""
        for window in self.windows:
            if window.kind == kind and window.covers(t):
                return window
        return None

    @classmethod
    def empty(cls, seed: int = 0, policy: RetryPolicy | None = None) -> FaultPlan:
        """A plan that injects nothing (recovery machinery still armed)."""
        return cls(seed=seed, policy=policy or RetryPolicy())

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        horizon: float = 900.0,
        spikes: int = 2,
        stalls: int = 2,
        delays: int = 2,
        churn_rounds: int = 3,
        flaps: int = 1,
    ) -> FaultPlan:
        """Derive a full schedule from ``seed``, deterministically."""
        rng = random.Random(seed ^ _PLAN_SALT)

        # Transient rejections by submission ordinal, each of the first
        # 256 with probability 0.12.  Never reject two
        # consecutive ordinals: the retry of ordinal n is itself the
        # next submit call, so dropping n when n-1 rejected guarantees
        # every transient fault recovers on its immediate retry.
        rejects: set[int] = set()
        for ordinal in range(256):
            if rng.random() < 0.12 and (ordinal - 1) not in rejects:
                rejects.add(ordinal)

        windows: list[FaultWindow] = []
        for kind, count in (("fee_spike", spikes), ("block_stall", stalls), ("receipt_delay", delays)):
            for _ in range(count):
                start = rng.uniform(0.0, horizon * 0.8)
                length = rng.uniform(horizon * 0.05, horizon * 0.15)
                if kind == "fee_spike":
                    magnitude = rng.uniform(2.5, 4.0)
                elif kind == "block_stall":
                    magnitude = rng.uniform(5.0, 20.0)
                else:
                    magnitude = rng.uniform(5.0, 30.0)
                windows.append(FaultWindow(kind, start, start + length, magnitude))
        windows.sort(key=lambda w: (w.start, w.kind))

        flap_windows: list[tuple[int, int]] = []
        cursor = 1
        for _ in range(flaps):
            start = cursor + rng.randrange(0, 4)
            end = start + rng.randrange(1, 4)
            flap_windows.append((start, end))
            cursor = end + 1

        return cls(
            seed=seed,
            reject_submissions=frozenset(rejects),
            windows=tuple(windows),
            churn_rounds=churn_rounds,
            radio_flaps=tuple(flap_windows),
            policy=RetryPolicy(),
        )
