"""Tests for the Bluetooth proximity channel."""

import pytest

from repro.core.bluetooth import BluetoothChannel, BluetoothError

# ~0.0004 degrees of latitude is ~44 m.
NEAR = 0.0004
FAR = 0.01  # ~1.1 km


@pytest.fixture
def channel():
    ch = BluetoothChannel(range_m=50.0)
    ch.register("alice", 44.4940, 11.3420)
    ch.register("bob", 44.4940 + NEAR, 11.3420)
    ch.register("carol", 44.4940 + FAR, 11.3420)
    return ch


class TestProximity:
    def test_distance(self, channel):
        assert channel.distance_m("alice", "bob") == pytest.approx(44.5, abs=2.0)

    def test_in_range(self, channel):
        assert channel.in_range("alice", "bob")
        assert not channel.in_range("alice", "carol")

    def test_not_in_range_of_self(self, channel):
        assert not channel.in_range("alice", "alice")

    def test_unknown_device(self, channel):
        with pytest.raises(BluetoothError):
            channel.distance_m("alice", "mallory")


class TestMessaging:
    def test_send_within_range(self, channel):
        channel.send("alice", "bob", {"hello": 1})
        assert channel.receive("bob") == [("alice", {"hello": 1})]

    def test_send_out_of_range_fails(self, channel):
        with pytest.raises(BluetoothError):
            channel.send("alice", "carol", "too far")

    def test_receive_drains_inbox(self, channel):
        channel.send("alice", "bob", "one")
        channel.receive("bob")
        assert channel.receive("bob") == []

    def test_movement_changes_reachability(self, channel):
        assert not channel.in_range("alice", "carol")
        channel.register("carol", 44.4940 + NEAR, 11.3420)
        assert channel.in_range("alice", "carol")
        assert channel.messages_sent == 0
