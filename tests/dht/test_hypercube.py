"""Tests for the hypercube DHT and the ring baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import HypercubeDHT, HypercubeNode, NodeContent, RingDHT
from repro.dht.hypercube import HypercubeError
from repro.geo import encode


@pytest.fixture
def dht():
    return HypercubeDHT(r=6)


class TestNode:
    def test_neighbours_differ_by_one_bit(self):
        node = HypercubeNode(node_id=10, r=4)
        for neighbour in node.neighbours():
            assert bin(node.node_id ^ neighbour).count("1") == 1
        assert len(node.neighbours()) == 4

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            HypercubeNode(node_id=16, r=4)



class TestRouting:
    def test_route_length_equals_hamming_distance(self, dht):
        path = dht.route(0b000000, 0b101101)
        assert len(path) - 1 == bin(0b101101).count("1")

    def test_route_endpoints(self, dht):
        path = dht.route(3, 60)
        assert path[0] == 3
        assert path[-1] == 60

    def test_consecutive_hops_are_neighbours(self, dht):
        path = dht.route(0, 63)
        for a, b in zip(path, path[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_hop_budget_enforced(self, dht):
        with pytest.raises(HypercubeError):
            dht.route(0, 0b111111, max_hops=3)

    def test_diameter_is_r(self, dht):
        # Worst case: all bits differ.
        assert len(dht.route(0, (1 << 6) - 1)) - 1 == 6

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    def test_property_route_within_r_hops(self, origin, target):
        dht = HypercubeDHT(r=6)
        path = dht.route(origin, target)
        assert len(path) - 1 <= 6
        assert len(path) - 1 == bin(origin ^ target).count("1")


class TestStorage:
    def test_register_and_lookup(self, dht):
        olc = encode(44.494, 11.342)
        dht.register_contract(olc, "contract-1")
        result = dht.lookup(olc)
        assert result.found
        assert result.content.contract_id == "contract-1"
        assert result.hops <= dht.r

    def test_lookup_missing_location(self, dht):
        result = dht.lookup(encode(10.0, 10.0))
        assert not result.found

    def test_conflicting_registration_rejected(self, dht):
        olc = encode(44.494, 11.342)
        dht.register_contract(olc, "contract-1")
        with pytest.raises(HypercubeError):
            dht.register_contract(olc, "contract-2")

    def test_idempotent_registration(self, dht):
        olc = encode(44.494, 11.342)
        dht.register_contract(olc, "contract-1")
        dht.register_contract(olc, "contract-1")
        assert sum(len(node.storage) for node in dht.nodes.values()) == 1

    def test_append_cid_garbage_in(self, dht):
        olc = encode(44.494, 11.342)
        dht.register_contract(olc, "contract-1")
        dht.append_cid(olc, "cid-a")
        dht.append_cid(olc, "cid-b")
        dht.append_cid(olc, "cid-a")  # duplicate ignored
        assert dht.lookup(olc).content.cids == ["cid-a", "cid-b"]

    def test_append_cid_requires_contract(self, dht):
        with pytest.raises(HypercubeError):
            dht.append_cid(encode(1.0, 1.0), "cid-x")



class TestRingBaseline:
    def test_store_and_lookup(self):
        ring = RingDHT(size=64)
        content = NodeContent(contract_id="c", olc="8FVC2222+22")
        ring.store("8FVC2222+22", content)
        found, hops = ring.lookup("8FVC2222+22")
        assert found == content
        assert hops >= 0

    def test_successor_routing_is_linear(self):
        ring = RingDHT(size=64, use_fingers=False)
        path = ring.route(0, 63)
        assert len(path) - 1 == 63

    def test_finger_routing_is_logarithmic(self):
        ring = RingDHT(size=64, use_fingers=True)
        path = ring.route(0, 63)
        assert len(path) - 1 <= 7

    def test_hypercube_beats_plain_ring_on_average(self):
        # The section 1.3 claim, quantified on equal node counts.
        dht = HypercubeDHT(r=6)
        ring = RingDHT(size=64, use_fingers=False)
        keywords = [encode(40.0 + i * 0.37, 10.0 + i * 0.53) for i in range(40)]
        cube_hops = sum(dht.lookup(k).hops for k in keywords)
        ring_hops = sum(ring.lookup(k)[1] for k in keywords)
        assert cube_hops < ring_hops
