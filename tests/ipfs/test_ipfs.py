"""Tests for CIDs and the IPFS-like network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipfs import CidError, ContentNotAvailable, IpfsNetwork, compute_cid, verify_cid
from repro.ipfs.cid import parse_cid
from repro.crypto.hashing import sha256


@pytest.fixture
def network():
    net = IpfsNetwork()
    net.add_node("alice")
    net.add_node("bob")
    return net


class TestCid:
    def test_cid_is_deterministic(self):
        assert compute_cid(b"hello") == compute_cid(b"hello")

    def test_cid_differs_per_content(self):
        assert compute_cid(b"a") != compute_cid(b"b")

    def test_cid_shape(self):
        cid = compute_cid(b"report")
        assert cid.startswith("b")
        assert cid == cid.lower()

    def test_verify_cid(self):
        cid = compute_cid(b"data")
        assert verify_cid(b"data", cid)
        assert not verify_cid(b"other", cid)

    def test_parse_cid_recovers_digest(self):
        cid = compute_cid(b"data")
        assert parse_cid(cid) == sha256(b"data")

    def test_parse_rejects_garbage(self):
        with pytest.raises(CidError):
            parse_cid("not-a-cid")
        with pytest.raises(CidError):
            parse_cid("")

    def test_non_bytes_rejected(self):
        with pytest.raises(CidError):
            compute_cid("string")  # type: ignore[arg-type]

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=500))
    def test_property_roundtrip(self, content):
        cid = compute_cid(content)
        assert verify_cid(content, cid)
        assert parse_cid(cid) == sha256(content)


class TestNetwork:
    def test_add_and_get(self, network):
        cid = network.add("alice", b"my report")
        assert network.get(cid) == b"my report"

    def test_get_unknown_cid(self, network):
        with pytest.raises(ContentNotAvailable):
            network.get(compute_cid(b"never added"))

    def test_duplicate_node_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_node("alice")

    def test_content_disappears_when_no_node_hosts_it(self, network):
        # The thesis's drawback: nobody hosting -> content gone.
        cid = network.add("alice", b"ephemeral")
        assert network.get(cid) == b"ephemeral"
        del network.nodes["alice"].blocks[cid]
        with pytest.raises(ContentNotAvailable):
            network.get(cid)
        assert network.providers[cid] == ()

    def test_replication_keeps_content_alive(self, network):
        cid = network.add("alice", b"popular")
        network.replicate(cid, "bob")
        del network.nodes["alice"].blocks[cid]
        assert network.get(cid) == b"popular"
        assert network.providers[cid] == ("bob",)

    def test_corrupted_provider_detected(self, network):
        cid = network.add("alice", b"original")
        network.nodes["alice"].blocks[cid] = b"tampered"
        with pytest.raises(CidError):
            network.get(cid)

    @pytest.mark.parametrize(
        "names",
        [("alice", "bob", "carol"), ("bob", "alice", "carol"), ("zed", "amy", "mia"),
         ("p0", "p1", "p2", "p3", "p4"), ("n9", "n3", "n7", "n1")],
    )
    def test_honest_provider_outvotes_a_corrupted_one(self, names):
        # Whatever the names (and so the provider-set order), an honest
        # copy is served; providers are tried in name order, and a
        # tampering provider tried before the honest one leaves the record.
        for tampered in names:
            network = IpfsNetwork()
            for name in names:
                network.add_node(name)
            cid = network.add(names[0], b"original")
            for name in names[1:]:
                network.replicate(cid, name)
            network.nodes[tampered].blocks[cid] = b"tampered"
            assert network.get(cid) == b"original"
            tried_first = tampered < min(set(names) - {tampered})
            assert network.providers[cid] == tuple(sorted(set(names) - ({tampered} if tried_first else set())))

    def test_provider_count(self, network):
        cid = network.add("alice", b"shared")
        assert network.providers[cid] == ("alice",)
        network.replicate(cid, "bob")
        assert network.providers[cid] == ("alice", "bob")


class TestTableBase32:
    """The CID encoder equals the standard library's base32, byte for byte."""

    @staticmethod
    def reference(data: bytes) -> str:
        import base64

        return base64.b32encode(data).decode().lower().rstrip("=")

    def test_every_length_up_to_100_bytes(self):
        import random

        from repro.ipfs.cid import base32

        rng = random.Random(2023)
        for size in range(101):
            for _ in range(25):
                data = rng.randbytes(size)
                assert base32(data) == self.reference(data), size
            for data in (bytes(size), b"\xff" * size):
                assert base32(data) == self.reference(data), size

    def test_cid_body(self):
        from repro.crypto.hashing import sha256
        from repro.ipfs.cid import base32, compute_cid, parse_cid

        for content in (b"", b"report", bytes(range(256))):
            body = b"\x01\x55\x12\x20" + sha256(content)
            assert len(body) == 36
            cid = compute_cid(content)
            assert cid == "b" + self.reference(body) == "b" + base32(body)
            assert parse_cid(cid) == sha256(content)
