"""Simulated clock.

Every chain, node and actor in the system reads time from a
:class:`SimClock` instead of ``time.time()``, so a full 32-user
benchmark that "takes" fifteen simulated minutes finishes in
milliseconds of real time.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock (seconds as float)."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        Advancing to a timestamp in the past is a no-op rather than an
        error: concurrent event sources frequently race to the same
        instant.
        """
        if timestamp > self._now:
            self._now = timestamp
        return self._now
