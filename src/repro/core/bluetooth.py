"""The Bluetooth proximity channel (thesis sections 2.1-2.2).

"We will use Bluetooth to communicate between the prover and witness"
-- the physical-proximity guarantee that GPS alone cannot give.  The
channel is range-limited: messaging only works between devices within
radio range, so a remote attacker simply cannot obtain a witness
signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.geo.distance import haversine_km

DEFAULT_RANGE_M = 50.0


class BluetoothError(Exception):
    """Target out of radio range or unknown device."""


@dataclass
class BluetoothChannel:
    """A shared radio medium over simulated geography."""

    range_m: float = DEFAULT_RANGE_M
    #: device id -> (latitude, longitude); a tuple of floats, which the
    #: cyclic collector stops tracking
    devices: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: undelivered messages by recipient, made by the first send to it
    inboxes: dict[str, list[tuple[str, Any]]] = field(default_factory=dict)
    messages_sent: int = 0
    #: radio-fault scale on the nominal range (1.0 = nominal); a range
    #: flap injector shrinks this to model interference/occlusion.
    range_scale: float = 1.0
    #: fault hook consulted on every send (None = no faults installed;
    #: see :class:`repro.faults.inject.RadioFaultInjector`).
    faults: Any = None

    @property
    def effective_range_m(self) -> float:
        """The nominal range after any active radio fault."""
        return self.range_m * self.range_scale

    def register(self, device_id: str, latitude: float, longitude: float) -> None:
        """Power on a device at a position."""
        self.devices[device_id] = (latitude, longitude)

    def _position(self, device_id: str) -> tuple[float, float]:
        position = self.devices.get(device_id)
        if position is None:
            raise BluetoothError(f"unknown device {device_id!r}")
        return position

    def distance_m(self, a: str, b: str) -> float:
        """Physical distance between two devices in metres."""
        return haversine_km(*self._position(a), *self._position(b)) * 1000.0

    def reach_m(self, a: str, b: str) -> float | None:
        """The distance between two devices that can currently talk, else None."""
        if a == b:
            return None
        distance = self.distance_m(a, b)
        return distance if distance <= self.effective_range_m else None

    def in_range(self, a: str, b: str) -> bool:
        """Whether two devices can currently talk."""
        return self.reach_m(a, b) is not None

    def send(self, sender: str, recipient: str, payload: Any) -> None:
        """Deliver a message if (and only if) the peers are in range."""
        if self.faults is not None:
            self.faults.on_send(self)
        if not self.in_range(sender, recipient):
            raise BluetoothError(
                f"{recipient!r} is out of Bluetooth range of {sender!r} "
                f"({self.distance_m(sender, recipient):.0f} m > {self.effective_range_m:.0f} m)"
            )
        self.messages_sent += 1
        self.inboxes.setdefault(recipient, []).append((sender, payload))

    def receive(self, device_id: str) -> list[tuple[str, Any]]:
        """Drain a device's inbox."""
        self._position(device_id)  # an unknown device raises
        return self.inboxes.pop(device_id, [])
