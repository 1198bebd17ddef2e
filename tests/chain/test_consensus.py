"""Tests for both consensus engines: PoS validators and PPoS sortition."""

import gc
import hashlib

import pytest

from repro.chain import ChainService, drive, make_chain
from repro.chain import base
from repro.chain.base import DrawMemo
from repro.crypto.hashing import sha256
from repro.crypto.vrf import VRFKeyPair
from repro.chain.algorand.consensus import (
    Credential,
    Sortition,
    sortition_seats,
)
from repro.chain.ethereum.consensus import ValidatorSet
from repro.obs.prof import Profiler, activate_profiler

ETH = 10**18


class TestValidatorSet:
    @pytest.fixture
    def validators(self):
        vs = ValidatorSet(stake_requirement=32 * ETH)
        for i in range(10):
            vs.register(f"0xval{i}", 32 * ETH)
        return vs

    def test_stake_requirement_enforced(self):
        vs = ValidatorSet(stake_requirement=32 * ETH)
        with pytest.raises(ValueError):
            vs.register("0xpoor", 31 * ETH)

    def test_duplicate_registration_rejected(self, validators):
        with pytest.raises(ValueError):
            validators.register("0xval0", 32 * ETH)

    def test_proposer_selection_deterministic_per_seed(self, validators):
        seed = sha256(b"slot-1")
        a = validators.select_proposer(seed).address
        fresh = ValidatorSet(stake_requirement=32 * ETH)
        for i in range(10):
            fresh.register(f"0xval{i}", 32 * ETH)
        b = fresh.select_proposer(seed).address
        assert a == b

    def test_proposer_varies_across_seeds(self, validators):
        chosen = {validators.select_proposer(sha256(bytes([i]))).address for i in range(40)}
        assert len(chosen) > 3

    def test_committee_excludes_proposer(self, validators):
        seed = sha256(b"slot")
        proposer = validators.select_proposer(seed)
        committee = validators.select_committee(seed, exclude=proposer.address)
        assert proposer.address not in [v.address for v in committee]
        assert len(committee) == validators.committee_size

    def test_total_stake(self, validators):
        assert validators.total_stake() == 10 * 32 * ETH


class TestSortitionSeats:
    def test_zero_stake_gets_no_seats(self):
        assert sortition_seats(b"\xff" * 32, 0, 100, 10) == 0

    def test_whale_gets_multiple_seats(self):
        # One account owning all stake must win ~expected seats.
        seats = sortition_seats(b"\x80" + b"\x00" * 31, 1000, 1000, 10)
        assert seats >= 5

    def test_low_output_few_seats(self):
        seats = sortition_seats(b"\x00" * 32, 10, 1000, 5)
        assert seats == 0

    def test_seats_monotone_in_output(self):
        low = sortition_seats((10).to_bytes(16, "big") + b"\x00" * 16, 100, 1000, 10)
        high = sortition_seats(b"\xff" * 32, 100, 1000, 10)
        assert high >= low

    def test_expected_seats_statistics(self):
        # Across many pseudorandom draws the mean seat count for an account
        # holding 10% of stake with expected committee 10 should be ~1.
        total = 0
        for i in range(300):
            output = sha256(b"draw", bytes([i % 256]), bytes([i // 256]))
            total += sortition_seats(output, 100, 1000, 10)
        mean = total / 300
        assert 0.5 < mean < 1.6


class TestSortitionRounds:
    @pytest.fixture
    def sortition(self):
        s = Sortition(expected_leaders=2.0, expected_committee=8.0)
        for i in range(12):
            s.register(f"ADDR{i}", VRFKeyPair.from_seed(f"p{i}".encode()), stake=1_000)
        return s

    def test_rounds_usually_certify(self, sortition):
        certified = sum(
            1 for r in range(30) if sortition.run_round(r, sha256(b"seed", bytes([r]))).certified
        )
        assert certified >= 25

    def test_leader_credentials_verify(self, sortition):
        for r in range(10):
            seed = sha256(b"seed", bytes([r]))
            outcome = sortition.run_round(r, seed)
            if outcome.leader is not None:
                assert sortition.verify_credential(outcome.leader, seed, r, role="leader")

    def test_forged_credential_rejected(self, sortition):
        seed = sha256(b"seed", b"\x01")
        outcome = sortition.run_round(1, seed)
        assert outcome.leader is not None
        proof = outcome.leader.proof
        forged = Credential(address="ADDR0", seats=outcome.leader.seats, output=proof.output(), reveal=lambda: proof)
        if outcome.leader.address != "ADDR0":
            assert not sortition.verify_credential(forged, seed, 1, role="leader")

    def test_leadership_rotates(self, sortition):
        leaders = set()
        for r in range(40):
            outcome = sortition.run_round(r, sha256(b"rotate", bytes([r])))
            if outcome.leader:
                leaders.add(outcome.leader.address)
        assert len(leaders) > 4

    def test_register_rejects_zero_stake(self, sortition):
        with pytest.raises(ValueError):
            sortition.register("BROKE", VRFKeyPair.from_seed(b"broke"), stake=0)


#: SHA-256 over rounds 1-64 of a seeded algorand-testnet chain's sortition,
#: computed with builtin ``pow`` before the VRF moved onto the H comb.
PINNED_ROUNDS_DIGEST = "7b645385db457e186ce210790607e263590263a58f4c98bab28ee45725f73036"

#: SHA-256 over every revealed credential's ``(round, role, address, gamma,
#: c, s)`` in the same 64 rounds, computed while proofs were still made
#: eagerly for every winner: lazily made proofs must be the same bytes.
PINNED_CREDENTIALS_DIGEST = "f5970e2bdad3ed187074f190161dc7191e1d066eb6d8374074f5ce429cac9546"


class TestPinnedRounds:
    def test_rounds_match_pinned_digest_and_credentials_verify(self):
        chain = make_chain("algorand-testnet", seed=1)
        sortition = chain.sortition
        seed = chain.blocks[0].seed
        digest = hashlib.sha256()
        credentials = hashlib.sha256()
        for r in range(1, 65):
            seed = sha256(seed, r.to_bytes(8, "big"))
            outcome = sortition.run_round(r, seed)
            leader = outcome.leader
            digest.update(
                repr(
                    (
                        r,
                        leader.address if leader else None,
                        leader.seats if leader else 0,
                        [(c.address, c.seats) for c in outcome.committee],
                        outcome.approvals,
                        outcome.certified,
                    )
                ).encode()
            )
            revealed = [("leader", leader)] if leader is not None else []
            revealed += [("committee", credential) for credential in outcome.committee]
            for role, credential in revealed:
                proof = credential.proof
                credentials.update(repr((r, role, credential.address, proof.gamma, proof.c, proof.s)).encode())
                assert sortition.verify_credential(credential, seed, r, role=role)
        assert digest.hexdigest() == PINNED_ROUNDS_DIGEST
        assert credentials.hexdigest() == PINNED_CREDENTIALS_DIGEST


class TestRoundCost:
    """A round pays for the VRF draws it reads, not for unread proofs."""

    @pytest.fixture
    def chain(self):
        chain = make_chain("algorand-testnet", seed=1)
        chain.sortition.set_online(sorted(chain.sortition.participants)[0], False)
        return chain

    def _comb_calls(self, profiler):
        return profiler.profile()["stages"].get("crypto.comb", {}).get("calls", 0)

    def test_round_reading_no_credential_draws_two_combs_per_online_participant(self, chain):
        sortition = chain.sortition
        online = [p for p in sortition.participants.values() if p.online]
        profiler = Profiler()
        with activate_profiler(profiler):
            outcome = sortition.run_round(1, sha256(b"round-cost"))
        assert outcome.leader is not None and outcome.committee
        assert len(online) == len(sortition.participants) - 1
        assert self._comb_calls(profiler) == 2 * len(online)

    def test_proof_is_made_on_first_read_and_cached(self, chain):
        seed = sha256(b"round-cost")
        outcome = chain.sortition.run_round(1, seed)
        profiler = Profiler()
        with activate_profiler(profiler):
            proof = outcome.leader.proof
            assert outcome.leader.proof is proof
        # base, nonce commitment and its H twin; gamma comes from the draw
        assert self._comb_calls(profiler) == 3
        assert proof.output() == outcome.leader.output
        assert chain.sortition.verify_credential(outcome.leader, seed, 1, role="leader")


def _replayable(chain, blocks):
    """Every block's consensus fields and every duty counter of a chain."""
    chain.start()
    drive(chain.queue, lambda: chain.height >= blocks, chain=chain)
    rows = [(b.number, b.proposer, b.metadata, b.seed, b.block_hash) for b in chain.blocks]
    if hasattr(chain, "sortition"):
        counters = [(p.address, p.blocks_led, p.votes_cast) for p in chain.sortition.participants.values()]
    else:
        counters = [(v.address, v.blocks_proposed, v.attestations) for v in chain.validators.validators.values()]
    return rows, counters


def _busy(chain):
    """Submit one transfer, so a devnet draws its first rounds instead of skipping them."""
    alice = chain.create_account(seed=b"alice", funding=10**21)
    tx = ChainService(chain).build(alice, "transfer", to=alice.address, value=1)
    chain.submit(chain.sign(alice, tx))
    return chain


class TestSlotDrawMemo:
    """Chains that replay one network draw each slot once per process."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """Empties the process's memo, as a new process would have it."""
        def fresh():
            memo = DrawMemo(base.SLOT_DRAWS.cap)
            monkeypatch.setattr(base, "SLOT_DRAWS", memo)
            return memo

        return fresh

    @pytest.mark.parametrize("network", ["goerli", "polygon-mumbai", "algorand-testnet"])
    def test_warm_chain_replays_the_cold_chain_exactly(self, network, fresh):
        memo = fresh()
        cold = _replayable(make_chain(network, seed=1), 24)
        assert memo.drawn == 24 and memo.replayed == 0
        warm = _replayable(make_chain(network, seed=1), 24)
        assert memo.drawn == 24 and memo.replayed == 24
        assert warm == cold
        memo = fresh()
        assert _replayable(make_chain(network, seed=1), 24) == cold
        assert memo.drawn == 24 and memo.replayed == 0

    def test_other_seed_draws_fresh_slots(self, fresh):
        memo = fresh()
        _replayable(make_chain("goerli", seed=1), 8)
        _replayable(make_chain("goerli", seed=2), 8)
        assert memo.drawn == 16 and memo.replayed == 0

    def test_participant_offline_mid_run_draws_fresh_rounds(self, fresh):
        memo = fresh()
        _replayable(make_chain("algorand-testnet", seed=1), 16)
        chain = make_chain("algorand-testnet", seed=1)
        _replayable(chain, 8)
        assert memo.replayed == 8
        chain.sortition.set_online(sorted(chain.sortition.participants)[0], False)
        rows, _counters = _replayable(chain, 16)
        assert memo.drawn == 24 and memo.replayed == 8
        # What the reduced set drew is what it draws from an empty memo.
        memo = fresh()
        offline = make_chain("algorand-testnet", seed=1)
        offline.sortition.set_online(sorted(offline.sortition.participants)[0], False)
        for number, proposer, metadata, seed, _hash in rows[9:17]:
            assert offline._select_proposer(number, seed) == (proposer, metadata)
        assert memo.drawn == 8 and memo.replayed == 0

    def test_devnet_idle_rounds_skip_the_memo_and_busy_rounds_match_a_cold_draw(self, fresh):
        memo = fresh()
        idle = make_chain("algo-devnet", seed=1)
        idle.start()
        drive(idle.queue, lambda: idle.height >= 16, chain=idle)
        assert len(memo) == 0 and memo.drawn == 0
        assert all(block.proposer == "relay" and block.metadata["empty"] for block in idle.blocks[1:])
        busy = _replayable(_busy(make_chain("algo-devnet", seed=1)), 4)
        assert memo.drawn > 0
        memo = fresh()
        assert _replayable(_busy(make_chain("algo-devnet", seed=1)), 4) == busy
        assert memo.replayed == 0

    def test_entries_are_untracked_atoms(self, fresh):
        memo = fresh()
        _replayable(make_chain("goerli", seed=1), 8)
        _replayable(make_chain("algorand-testnet", seed=1), 8)
        assert len(memo) == 16
        # A pass untracks a tuple once its members are untracked, so the
        # key (five tuples deep) drops out on the fifth pass at the latest.
        for _ in range(5):
            gc.collect()
        for key, outcome in memo._entries.items():
            assert not gc.is_tracked(key) and not gc.is_tracked(outcome)

    def test_a_full_memo_starts_over(self):
        memo = DrawMemo(cap=4)
        for index in range(6):
            memo.put((index,), ("proposer", ()))
        assert len(memo) == 2 and memo.drawn == 6
        assert memo.get((5,)) is not None and memo.get((0,)) is None
        assert memo.replayed == 1
        assert base.SLOT_DRAWS.cap == 2048
