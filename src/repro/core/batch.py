"""Proof batching with Merkle aggregation (the rollup-style layer).

One ``attacherAPI.insert_data`` transaction per proof is the dominant
cost of the chapter-5 campaigns: every prover pays a full attach
ceremony (handshake + call on the EVM family, opt-in + call on the
AVM family) for a record the verifier re-reads off-chain anyway.  The
batching layer amortizes that ceremony the way rollups do:

- the verifier checks each proof off-chain as it arrives and buffers
  the *accepted* records per location;
- a full buffer (or an aged one, or shutdown) is committed as a single
  ``attacherAPI.insert_batch(root, count, batch_id)`` transaction whose
  ``root`` is the Merkle root over the records' bytes;
- every prover retains its inclusion path
  (:meth:`repro.core.actors.Prover.retain_inclusion`), and light
  verification recomputes the root from record + path against the
  anchored ``batch_map[batch_id]`` -- a free contract read, no
  per-record transaction.

The static counterpart of this trade is the ``COST-BATCH-AMORTIZED``
theorem (:func:`repro.reach.absint.cost.batch_amortization`); the bench
layer checks measured ``insert_batch`` receipts against its amortized
interval (:func:`repro.bench.bounds.check_batched_point`).

Flush policy -- all three triggers apply:

========  ====================================================
trigger   when
========  ====================================================
size      a location's buffer reaches ``batch_size`` records
age       :meth:`BatchAggregator.poll` finds a buffer older
          than ``max_age`` sim-seconds (call it periodically)
shutdown  :meth:`BatchAggregator.flush_all` drains the rest
========  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.chain.base import drain
from repro.crypto.merkle import MerkleProof, MerkleTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import ProofOfLocationSystem


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One accepted proof record waiting for (or inside) a batch."""

    prover_name: str
    olc: str
    did_uint: int
    #: the ``pol_record`` concatenation; its UTF-8 bytes are the leaf
    record: str

    @property
    def leaf(self) -> bytes:
        return self.record.encode()


@dataclass(slots=True)
class _Buffered:
    """A buffered record plus its journey bookkeeping."""

    record: BatchRecord
    submit_span: Any = None  # the member's open proof:submit span


@dataclass
class AnchoredBatch:
    """One committed batch: the root is on-chain, the records are not."""

    batch_id: int
    olc: str
    root_hex: str
    records: list[BatchRecord]
    handle: Any  # OpHandle of the single insert_batch transaction
    proofs: dict[int, MerkleProof] = field(default_factory=dict)  # did_uint -> path

    @property
    def count(self) -> int:
        return len(self.records)


class BatchAggregator:
    """Buffers verifier-accepted records per location; one tx per flush.

    The aggregator is owned by a verifier: acceptance (signature, hash,
    replay screening) happened *before* a record enters a buffer, so a
    flush never anchors an unchecked proof.  Journey tracing: each
    member's ``proof:submit`` span stays open until its batch's
    transaction settles, and a mirrored ``tx:insert_batch`` span per
    member (opened at flush, closed at settlement with the real
    receipt's ``included_at``) gives every batched journey the same
    mempool/confirm stages an individual submission would have -- one
    physical transaction fanning into N traced journeys.
    """

    def __init__(
        self,
        system: "ProofOfLocationSystem",
        verifier_name: str,
        batch_size: int = 16,
        max_age: float = 600.0,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if verifier_name not in system.verifiers:
            raise ValueError(f"{verifier_name!r} is not an accredited verifier")
        self.system = system
        self.verifier_name = verifier_name
        self.batch_size = batch_size
        self.max_age = max_age
        self._buffers: dict[str, list[_Buffered]] = {}
        self._opened_at: dict[str, float] = {}
        self._next_batch_id = 1
        self.anchored: list[AnchoredBatch] = []
        # Running receipt stats (mirrored into recorder gauges so the
        # analyze CLI can check them against the absint intervals).
        self.gas_min: int | None = None
        self.gas_max: int = 0
        self.fee_min: int | None = None
        self.fee_max: int = 0

    @property
    def verifier(self):
        """The owning verifier actor (runs the acceptance checks)."""
        return self.system.verifiers[self.verifier_name]

    def pending(self, olc: str) -> int:
        """How many accepted records wait in a location's buffer."""
        return len(self._buffers.get(olc, ()))

    def add(self, record: BatchRecord, submit_span: Any = None) -> AnchoredBatch | None:
        """Buffer an accepted record; flush when the buffer fills.

        Returns the :class:`AnchoredBatch` when this record triggered a
        size flush, None otherwise.  ``submit_span`` (the member's open
        ``proof:submit`` span) is closed when the batch settles.
        """
        buffer = self._buffers.setdefault(record.olc, [])
        if not buffer:
            self._opened_at[record.olc] = self.system.chain.queue.clock.now
        buffer.append(_Buffered(record=record, submit_span=submit_span))
        if len(buffer) >= self.batch_size:
            return self._flush(record.olc)
        return None

    def poll(self) -> list[AnchoredBatch]:
        """Age-based flush: commit buffers older than ``max_age``."""
        now = self.system.chain.queue.clock.now
        due = [
            olc
            for olc, opened in sorted(self._opened_at.items())
            if now - opened >= self.max_age
        ]
        return [self._flush(olc) for olc in due]

    def flush_all(self) -> list[AnchoredBatch]:
        """Shutdown flush: commit every non-empty buffer."""
        return [self._flush(olc) for olc in sorted(self._buffers)]

    def drain(self) -> list[AnchoredBatch]:
        """Drive the chain until every anchoring transaction settles."""
        drain(
            self.system.chain,
            [batch.handle for batch in self.anchored if not batch.handle.done],
        )
        for batch in self.anchored:
            if batch.handle.error is not None:
                raise batch.handle.error
        return list(self.anchored)

    # -- internals -----------------------------------------------------------------

    def _flush(self, olc: str) -> AnchoredBatch:
        entries = self._buffers.pop(olc)
        self._opened_at.pop(olc, None)
        records = [entry.record for entry in entries]
        tree = MerkleTree([record.leaf for record in records])
        root_hex = tree.root.hex()
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        proofs = {
            record.did_uint: tree.proof(index) for index, record in enumerate(records)
        }
        # Provers retain their inclusion paths the moment the batch is
        # committed -- light verification reads the path back from them.
        for record in records:
            prover = self.system.provers.get(record.prover_name)
            if prover is not None:
                prover.retain_inclusion(batch_id, proofs[record.did_uint])

        recorder = self.system.chain.recorder
        deployed = self.system._contract_at(olc)
        account = self.system.accounts[self.verifier_name]
        flush_span = recorder.span(
            "batch:flush", track=f"verifier:{self.verifier_name}", cat="batch",
            olc=olc, batch=batch_id, count=len(records),
        )
        with recorder.activate(flush_span.context):
            handle = deployed.api_async(
                "attacherAPI.insert_batch", root_hex, len(records), batch_id,
                sender=account,
            )
        mirrors = []
        for entry in entries:
            if entry.submit_span is None:
                mirrors.append(None)
                continue
            mirrors.append(
                recorder.span(
                    "tx:insert_batch",
                    track=f"prover:{entry.record.prover_name}", cat="tx",
                    parent=entry.submit_span.context, olc=olc, batch=batch_id,
                )
            )
        batch = AnchoredBatch(
            batch_id=batch_id, olc=olc, root_hex=root_hex,
            records=records, handle=handle, proofs=proofs,
        )
        self.anchored.append(batch)

        def settle(settled) -> None:
            included = next(
                (r.included_at for r in settled.receipts if r.included_at is not None),
                None,
            )
            error = type(settled.error).__name__ if settled.error is not None else ""
            extra = {"error": error} if error else {}
            if included is not None:
                extra["included_at"] = included
            for mirror in mirrors:
                if mirror is not None:
                    mirror.end(**extra)
            for entry in entries:
                if entry.submit_span is not None:
                    entry.submit_span.end(batch=batch_id, error=error)
            flush_span.end(error=error)
            if settled.error is None:
                watchtower = self.system.chain.watchtower
                if watchtower.enabled:
                    # Batch-inclusion coverage: every member must hold a
                    # retained Merkle path that verifies against the
                    # anchored root; verified members resolve their
                    # proof-liveness tracking.
                    watchtower.check_batch(batch, self.system.provers)
                gas = sum(r.gas_used for r in settled.receipts)
                fee = sum(r.fee_paid for r in settled.receipts)
                self.gas_min = gas if self.gas_min is None else min(self.gas_min, gas)
                self.gas_max = max(self.gas_max, gas)
                self.fee_min = fee if self.fee_min is None else min(self.fee_min, fee)
                self.fee_max = max(self.fee_max, fee)
                recorder.counter("batch_anchored_total")
                recorder.counter("batch_proofs_anchored_total", len(records))
                recorder.gauge("batch_insert_gas_min", self.gas_min)
                recorder.gauge("batch_insert_gas_max", self.gas_max)
                recorder.gauge("batch_insert_fee_min", self.fee_min)
                recorder.gauge("batch_insert_fee_max", self.fee_max)

        handle.add_done_callback(settle)
        return batch
