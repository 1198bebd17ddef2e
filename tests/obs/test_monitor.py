"""Watchtower unit tests: invariants, liveness tracking, bundles."""

from types import SimpleNamespace

import pytest

from repro.chain import make_chain
from repro.core.batch import AnchoredBatch, BatchRecord
from repro.crypto.merkle import MerkleTree
from repro.obs.monitor import NULL_WATCHTOWER, InvariantViolation, Watchtower
from repro.obs.recorder import Recorder


def make_watchtower(network="goerli", seed=0, **kwargs):
    recorder = Recorder()
    chain = make_chain(network, seed=seed, recorder=recorder)
    watchtower = Watchtower(recorder, **kwargs)
    watchtower.attach_chain(chain)
    return watchtower, chain


def run_blocks(chain, count):
    chain.start()
    target = chain.queue.clock.now + chain.profile.block_time * count + 0.001
    chain.queue.run_until(target)


def fake_block(number, timestamp, *transactions):
    return SimpleNamespace(
        number=number, timestamp=timestamp, transactions=list(transactions)
    )


def fake_tx(sender, nonce):
    return SimpleNamespace(sender=sender, nonce=nonce)


class TestAttachment:
    def test_attach_chain_installs_hook_and_rules(self):
        watchtower, chain = make_watchtower()
        assert chain.watchtower is watchtower
        assert watchtower.on_block in chain.block_listeners
        assert watchtower.slo is not None
        assert any(rule.name == "tx-retry-burn" for rule in watchtower.slo.rules)

    def test_attach_chain_is_idempotent(self):
        watchtower, chain = make_watchtower()
        watchtower.attach_chain(chain)
        assert chain.block_listeners.count(watchtower.on_block) == 1
        assert chain.queue.exception_watchers.count(watchtower._on_queue_exception) == 1
        assert len(watchtower._chains) == 1

    def test_block_from_unattached_chain_rejected(self):
        watchtower, chain = make_watchtower()
        stranger = make_chain("goerli", seed=9, recorder=Recorder())
        with pytest.raises(ValueError, match="unattached"):
            watchtower.on_block(stranger, fake_block(1, 12.0))

    def test_null_watchtower_is_inert(self):
        assert NULL_WATCHTOWER.enabled is False
        NULL_WATCHTOWER.track_proof(("X", 1))
        NULL_WATCHTOWER.evaluate()
        assert NULL_WATCHTOWER.finish() == []


class TestCleanBlocks:
    def test_empty_blocks_hold_every_invariant(self):
        watchtower, chain = make_watchtower()
        run_blocks(chain, 5)
        assert watchtower.finish() == []
        summary = watchtower.summary()
        assert summary["checks"][chain.profile.name] >= 5
        assert summary["bundles"] == 0

    def test_checks_counted_on_the_recorder(self):
        watchtower, chain = make_watchtower()
        run_blocks(chain, 3)
        assert watchtower.recorder.counter_value("watchtower_checks_total") >= 3


class TestConservation:
    def test_minted_tamper_is_caught_at_the_next_block(self):
        watchtower, chain = make_watchtower()
        run_blocks(chain, 1)
        assert watchtower.violations == []
        chain.minted_total += 1  # one base unit vanishes from the books
        run_blocks(chain, 1)
        kinds = {violation.invariant for violation in watchtower.violations}
        assert kinds == {"balance_conservation"}
        assert "drift" in watchtower.violations[0].detail

    def test_violation_dumps_a_bundle_and_counts(self):
        watchtower, chain = make_watchtower()
        chain.minted_total += 5
        run_blocks(chain, 1)
        assert len(watchtower.flight.bundles) >= 1
        assert watchtower.recorder.counter_value(
            "watchtower_violations_total", invariant="balance_conservation"
        ) >= 1


class TestNonces:
    def test_duplicate_inclusion_flagged(self):
        watchtower, chain = make_watchtower()
        watchtower.on_block(chain, fake_block(1, 12.0, fake_tx("0xabc", 0)))
        watchtower.on_block(chain, fake_block(2, 24.0, fake_tx("0xabc", 0)))
        (violation,) = [
            v for v in watchtower.violations if v.invariant == "nonce_monotonicity"
        ]
        assert "duplicate inclusion" in violation.detail

    def test_regressing_nonce_flagged(self):
        watchtower, chain = make_watchtower()
        watchtower.on_block(chain, fake_block(1, 12.0, fake_tx("0xabc", 3)))
        watchtower.on_block(chain, fake_block(2, 24.0, fake_tx("0xabc", 1)))
        (violation,) = [
            v for v in watchtower.violations if v.invariant == "nonce_monotonicity"
        ]
        assert "included after" in violation.detail

    def test_interleaved_senders_in_order_pass(self):
        watchtower, chain = make_watchtower()
        watchtower.on_block(
            chain, fake_block(1, 12.0, fake_tx("0xabc", 0), fake_tx("0xdef", 0))
        )
        watchtower.on_block(
            chain, fake_block(2, 24.0, fake_tx("0xdef", 1), fake_tx("0xabc", 1))
        )
        assert not [
            v for v in watchtower.violations if v.invariant == "nonce_monotonicity"
        ]


class TestProofLiveness:
    def test_unresolved_proof_violates_at_its_deadline(self):
        watchtower, chain = make_watchtower(liveness_blocks=2)
        watchtower.track_proof(("OLC", 1001), "t000042")
        run_blocks(chain, 3)
        (violation,) = [
            v for v in watchtower.violations if v.invariant == "proof_liveness"
        ]
        assert "within 2 blocks" in violation.detail
        assert violation.trace_ids == ("t000042",)

    def test_resolved_proof_never_violates(self):
        watchtower, chain = make_watchtower(liveness_blocks=2)
        watchtower.track_proof(("OLC", 1001), "t000042")
        watchtower.resolve_proof(("OLC", 1001))
        run_blocks(chain, 4)
        assert watchtower.finish() == []
        assert watchtower.summary()["proofs"] == {"tracked": 1, "resolved": 1}

    def test_tracking_is_idempotent_per_key(self):
        watchtower, chain = make_watchtower()
        watchtower.track_proof(("OLC", 1))
        watchtower.track_proof(("OLC", 1))
        assert watchtower.summary()["proofs"]["tracked"] == 1

    def test_finish_flags_stragglers_and_completeness(self):
        watchtower, chain = make_watchtower()
        run_blocks(chain, 1)
        watchtower.track_proof(("OLC", 7), "t000007")
        violations = watchtower.finish()
        assert [v.invariant for v in violations] == ["proof_liveness"]
        assert "never anchored" in violations[0].detail
        assert "journey-completeness" in watchtower.summary()["alerts_fired"]

    def test_finish_is_idempotent(self):
        watchtower, chain = make_watchtower()
        watchtower.track_proof(("OLC", 7))
        first = watchtower.finish()
        second = watchtower.finish()
        assert [str(v) for v in first] == [str(v) for v in second]


class TestBatchInclusion:
    def make_batch(self, *, drop_path=False, corrupt_root=False):
        records = [
            BatchRecord("prover-0", "OLC", 1000, "record-0"),
            BatchRecord("prover-1", "OLC", 1001, "record-1"),
        ]
        tree = MerkleTree([record.leaf for record in records])
        proofs = {
            record.did_uint: tree.proof(index)
            for index, record in enumerate(records)
        }
        if drop_path:
            del proofs[1001]
        root = tree.root if not corrupt_root else bytes(32)
        return AnchoredBatch(
            batch_id=1, olc="OLC", root_hex=root.hex(),
            records=records, handle=None, proofs=proofs,
        )

    def test_verifying_paths_resolve_their_proofs(self):
        watchtower, chain = make_watchtower()
        for record in (("OLC", 1000), ("OLC", 1001)):
            watchtower.track_proof(record)
        watchtower.check_batch(self.make_batch())
        assert watchtower.violations == []
        assert watchtower.summary()["proofs"]["resolved"] == 2

    def test_missing_retained_path_is_a_violation(self):
        watchtower, chain = make_watchtower()
        watchtower.check_batch(self.make_batch(drop_path=True))
        (violation,) = watchtower.violations
        assert violation.invariant == "batch_inclusion"
        assert "no retained inclusion path" in violation.detail

    def test_path_failing_verification_is_a_violation(self):
        watchtower, chain = make_watchtower()
        watchtower.check_batch(self.make_batch(corrupt_root=True))
        assert {v.invariant for v in watchtower.violations} == {"batch_inclusion"}
        assert all(
            "does not verify" in v.detail for v in watchtower.violations
        )


class TestExceptionsAndNotes:
    def test_queue_exception_dumps_a_bundle(self):
        watchtower, chain = make_watchtower()

        def boom() -> None:
            raise RuntimeError("kernel panic")

        chain.queue.schedule(1.0, boom, label="test-event")
        with pytest.raises(RuntimeError, match="kernel panic"):
            chain.queue.run_until(2.0)
        (bundle,) = watchtower.flight.bundles
        assert bundle["reason"]["kind"] == "exception"
        assert "kernel panic" in bundle["reason"]["detail"]

    def test_attach_queue_is_idempotent(self):
        # Two chains driven by one event queue register one exception watcher.
        watchtower, chain = make_watchtower()
        sibling = type(chain)(profile=chain.profile, queue=chain.queue, seed=1, validator_count=8)
        watchtower.attach_chain(sibling)
        assert sibling.queue is chain.queue
        assert chain.queue.exception_watchers.count(watchtower._on_queue_exception) == 1
        assert len(watchtower._chains) == 2

    def test_note_lands_in_the_flight_ring(self):
        watchtower, chain = make_watchtower()
        watchtower.note("custom", weight=3)
        (entry,) = watchtower.flight.ring
        assert entry["type"] == "event"
        assert entry["kind"] == "custom"
        assert entry["weight"] == 3


class TestConfirmationFeed:
    def test_observe_confirmation_feeds_latency_rule(self):
        watchtower, chain = make_watchtower()
        receipt = SimpleNamespace(included_at=10.0, confirmed_at=14.5)
        watchtower.observe_confirmation(chain, receipt)
        series = watchtower.slo._samples["confirm_latency_seconds"]
        assert [value for _, value in series] == [4.5]

    def test_unconfirmed_receipt_is_skipped(self):
        watchtower, chain = make_watchtower()
        watchtower.observe_confirmation(
            chain, SimpleNamespace(included_at=10.0, confirmed_at=None)
        )
        assert "confirm_latency_seconds" not in watchtower.slo._samples


class TestViolationRendering:
    def test_str_carries_position_and_detail(self):
        violation = InvariantViolation(
            invariant="balance_conservation", chain="goerli",
            sim_time=36.5, height=3, detail="drift +1",
        )
        assert str(violation) == "[balance_conservation] goerli h=3 t=36.500s: drift +1"
