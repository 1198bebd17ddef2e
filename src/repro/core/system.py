"""The end-to-end Proof-of-Location system facade.

Wires every substrate together the way chapter 2's architecture figure
does: chain + blockchain-agnostic contract + factory, hypercube DHT,
IPFS, DID registry, Certification Authority, and the Bluetooth channel.

The three flows map to the thesis's sequence diagrams:

- :meth:`request_location_proof` -- figure 2.5 (prover <-> witness);
- :meth:`submit` -- figure 2.3 (hypercube lookup, deploy-or-attach,
  data insert into the contract);
- :meth:`verify_and_reward` -- figure 2.6 (verifier reads the Map,
  checks eq. 2.2, rewards the prover, garbage-in to the hypercube).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain.base import Account, BaseChain, collector_paused, drain
from repro.did.registry import DidRegistry
from repro.dht.hypercube import HypercubeDHT
from repro.obs.monitor import NULL_WATCHTOWER
from repro.ipfs.network import IpfsNetwork
from repro.reach.compiler import CompiledContract, compile_program
from repro.reach.runtime import DeployedContract, OpHandle, OpResult, ReachClient
from repro.core.actors import CertificationAuthority, Prover, Verifier, Witness
from repro.core.batch import BatchRecord
from repro.core.bluetooth import BluetoothChannel
from repro.core.contract import build_pol_program, parse_pol_record, pol_record
from repro.core.factory import ContractFactory
from repro.core.proof import LocationProof, ProofFailure, ProofRequest


class PolSystemError(Exception):
    """A facade-level failure (unknown user, missing contract...)."""


@dataclass(slots=True)
class SubmissionOutcome:
    """What a prover's submission produced."""

    deployed: DeployedContract
    operation: OpResult
    was_deploy: bool
    olc: str


@dataclass(slots=True)
class PendingSubmission:
    """A pipelined submission (figure 2.3's flow as a future).

    Wraps the in-flight operation handle; once the event queue settles
    it, :meth:`outcome` yields the same :class:`SubmissionOutcome` the
    blocking :meth:`ProofOfLocationSystem.submit` returns.
    """

    handle: OpHandle
    olc: str
    was_deploy: bool
    deployed: DeployedContract | None = None  # known up front on attach paths

    @property
    def done(self) -> bool:
        """Whether every transaction of the submission has confirmed."""
        return self.handle.done

    def outcome(self) -> SubmissionOutcome:
        """The settled result; raises the operation's failure, if any."""
        if not self.handle.done:
            raise PolSystemError(f"submission for {self.olc} is still in flight")
        if self.handle.error is not None:
            raise self.handle.error
        if self.was_deploy:
            deployed = self.handle.value
            return SubmissionOutcome(
                deployed=deployed, operation=deployed.deploy_result, was_deploy=True, olc=self.olc
            )
        deployed = self.deployed
        if deployed is None:  # attached behind a then-pending deploy
            raise PolSystemError(f"no contract resolved for {self.olc}")
        return SubmissionOutcome(
            deployed=deployed, operation=self.handle.op_result, was_deploy=False, olc=self.olc
        )


@dataclass
class ProofOfLocationSystem:
    """One chain, one geography, all the actors."""

    chain: BaseChain
    reward: int = 10_000
    max_users: int = 4
    hypercube_bits: int = 8
    compiled: CompiledContract = None  # type: ignore[assignment]
    client: ReachClient = field(init=False)
    factory: ContractFactory = field(init=False)
    dht: HypercubeDHT = field(init=False)
    ipfs: IpfsNetwork = field(init=False)
    registry: DidRegistry = field(init=False)
    authority: CertificationAuthority = field(init=False)
    channel: BluetoothChannel = field(init=False)
    accounts: dict[str, Account] = field(default_factory=dict)
    provers: dict[str, Prover] = field(default_factory=dict)
    witnesses: dict[str, Witness] = field(default_factory=dict)
    verifiers: dict[str, Verifier] = field(default_factory=dict)
    #: 8-character OLC cell prefix -> public keys of the witnesses
    #: registered there.  Purely an ordering hint for the verifier's
    #: witness-list scan (the CA list stays authoritative): records from
    #: a cell are almost always signed by that cell's witnesses, which
    #: turns the O(|witnesses|) signature scan into O(1) in practice.
    _witness_cells: dict[str, list] = field(default_factory=dict)
    #: journey linkage (only populated while a live recorder is attached):
    #: the ``proof:request`` span's context keyed by (prover, nonce), so
    #: the later submit call joins the same trace ...
    _journey_roots: dict[tuple[str, int], Any] = field(default_factory=dict)
    #: ... and the journey context keyed by (olc, did_uint), so the
    #: verifier's read -- a separate call, often much later -- parents
    #: its ``proof:verify`` span into the proof's trace too.
    _journey_records: dict[tuple[str, int], Any] = field(default_factory=dict)
    #: the online invariant monitor (see :mod:`repro.obs.monitor`);
    #: NULL_WATCHTOWER keeps every hook a single attribute check.
    watchtower: Any = NULL_WATCHTOWER

    def __post_init__(self) -> None:
        if self.compiled is None:
            self.compiled = compile_program(build_pol_program(max_users=self.max_users, reward=self.reward))
        lint = self.compiled.lint_report()
        if lint.has_errors:
            failures = "; ".join(
                f.render() for f in lint.findings if f.severity == "error"
            )
            raise PolSystemError(f"contract fails lint: {failures}")
        self.client = ReachClient(self.chain)
        self.factory = ContractFactory(chain=self.chain, template=self.compiled, client=self.client)
        # Two neighbour replicas per record: losing a DHT node must not
        # lose its locations (tests/dht/test_replication.py).
        self.dht = HypercubeDHT(r=self.hypercube_bits, replication=2)
        self.ipfs = IpfsNetwork()
        self.ipfs.add_node("gateway")
        self.registry = DidRegistry()
        self.authority = CertificationAuthority()
        self.channel = BluetoothChannel()
        if self.watchtower.enabled:
            self.watchtower.attach_chain(self.chain)
            self.watchtower.attach_dht(self.dht)

    # -- onboarding (figure 2.3's "initial phase") ---------------------------------

    def _onboard(self, name: str, latitude: float, longitude: float, funding: int) -> tuple[Account, str, int]:
        if name in self.accounts:
            raise PolSystemError(f"user {name!r} already registered")
        account = self.chain.create_account(seed=f"user/{name}".encode(), funding=funding)
        document = self.registry.create(account.keypair)  # refuses a UInt DID collision
        self.accounts[name] = account
        self.channel.register(name, latitude, longitude)
        return account, document.id, document.uint

    def register_prover(self, name: str, latitude: float, longitude: float, funding: int) -> Prover:
        """Create a wallet, a DID and a radio for a new prover."""
        account, did, short_did = self._onboard(name, latitude, longitude, funding)
        self.ipfs.add_node(name)  # provers upload reports; witnesses never do
        prover = Prover(
            name=name, keypair=account.keypair, did=did, did_uint=short_did,
            latitude=latitude, longitude=longitude,
        )
        self.provers[name] = prover
        return prover

    def register_witness(self, name: str, latitude: float, longitude: float) -> Witness:
        """Onboard an unfunded witness; its public key goes to the CA list."""
        account, did, short_did = self._onboard(name, latitude, longitude, funding=0)
        witness = Witness(
            name=name, keypair=account.keypair, did=did, did_uint=short_did,
            latitude=latitude, longitude=longitude,
        )
        self.witnesses[name] = witness
        self.authority.register_witness(account.keypair.public, real_identity=name)
        self._witness_cells.setdefault(witness.olc[:8], []).append(account.keypair.public)
        return witness

    def register_verifier(self, name: str, funding: int) -> Verifier:
        """Onboard an accredited verifier (permissioned verification)."""
        if name in self.accounts:
            raise PolSystemError(f"user {name!r} already registered")
        account = self.chain.create_account(seed=f"user/{name}".encode(), funding=funding)
        self.accounts[name] = account
        self.authority.accredit_verifier(name)
        verifier = Verifier(name=name, keypair=account.keypair, authority=self.authority)
        self.verifiers[name] = verifier
        return verifier

    # -- figure 2.5: prover <-> witness ------------------------------------------------

    def request_location_proof(
        self, prover_name: str, witness_name: str, report_content: bytes
    ) -> tuple[ProofRequest, LocationProof, str]:
        """Upload the report to IPFS and obtain a witness-signed proof."""
        prover = self.provers[prover_name]
        witness = self.witnesses[witness_name]
        recorder = self.chain.recorder
        if not recorder.enabled:
            return self._obtain_proof(prover, witness, report_content)
        with recorder.span(
            "proof:request", track=f"prover:{prover_name}", cat="proof", witness=witness_name
        ) as span:
            request, proof, cid = self._obtain_proof(prover, witness, report_content)
        # This span roots the proof's journey; the submit call joins it
        # via the (prover, nonce) key.
        self._journey_roots[(prover_name, request.nonce)] = span.context
        return request, proof, cid

    def _obtain_proof(
        self, prover: Prover, witness: Witness, report_content: bytes
    ) -> tuple[ProofRequest, LocationProof, str]:
        cid = self.ipfs.add(prover.name, report_content)
        nonce = witness.issue_nonce()
        now = self.chain.queue.clock.now
        request = prover.make_request(nonce, cid, timestamp=now)
        proof = witness.handle_request(
            request,
            prover_device=prover.device_id,
            channel=self.channel,
            registry=self.registry,
            prover_keypair=prover.keypair,
            now=now,
        )
        return request, proof, cid

    # -- figure 2.3: hypercube lookup + deploy-or-attach -------------------------------

    def submit(self, prover_name: str, request: ProofRequest, proof: LocationProof) -> SubmissionOutcome:
        """Store the proof record in the location's contract (blocking).

        A one-element :meth:`submit_many` wave.
        """
        return self.submit_many([(prover_name, request, proof)])[0]

    def submit_async(self, prover_name: str, request: ProofRequest, proof: LocationProof) -> PendingSubmission:
        """Start a submission without blocking on confirmations.

        Resolves figure 2.3's branch immediately (the hypercube lookup
        and factory state are local), then pipelines the chain side:

        - location has a live contract -> attach operation;
        - location has a deploy *in flight* (another pipelined prover
          got there first) -> attach scheduled behind that deploy;
        - fresh location -> deploy; the hypercube registration runs in
          the deploy's confirmation callback.
        """
        recorder = self.chain.recorder
        watchtower = self.chain.watchtower
        if not recorder.enabled:
            if watchtower.enabled:
                return self._monitored_submission(prover_name, request, proof, watchtower, "")
            return self._start_submission(prover_name, request, proof)
        root = self._journey_roots.pop((prover_name, request.nonce), None)
        span = recorder.span(
            "proof:submit", track=f"prover:{prover_name}", cat="proof",
            olc=request.olc, parent=root,
        )
        # Activating the submit span around the pipelined start makes the
        # op/tx spans of the ceremony its children; the done callback is
        # where the journey's chain phase actually closes.
        with recorder.activate(span.context):
            if watchtower.enabled:
                submission = self._monitored_submission(
                    prover_name, request, proof, watchtower, span.trace_id
                )
            else:
                submission = self._start_submission(prover_name, request, proof)
        prover = self.provers[prover_name]
        self._journey_records[(request.olc, prover.did_uint)] = (
            root if root is not None else span.context
        )
        submission.handle.add_done_callback(
            lambda settled: span.end(
                error=type(settled.error).__name__ if settled.error is not None else "",
                was_deploy=submission.was_deploy,
            )
        )
        return submission

    def _monitored_submission(
        self, prover_name: str, request: ProofRequest, proof: LocationProof,
        watchtower: Any, trace_id: str,
    ) -> PendingSubmission:
        """Start a submission under the watchtower's liveness tracking.

        The proof is tracked *before* the chain side starts and resolved
        only when its transaction settles cleanly -- a submission that
        errors (or never lands) stays tracked and trips the
        ``proof_liveness`` invariant.
        """
        key = (request.olc, self.provers[prover_name].did_uint)
        watchtower.track_proof(key, trace_id)
        submission = self._start_submission(prover_name, request, proof)

        def resolve(settled) -> None:
            if settled.error is None:
                watchtower.resolve_proof(key)

        submission.handle.add_done_callback(resolve)
        return submission

    def _start_submission(self, prover_name: str, request: ProofRequest, proof: LocationProof) -> PendingSubmission:
        prover = self.provers[prover_name]
        account = self.accounts[prover_name]
        record = pol_record(
            proof.hashed_proof_hex,
            proof.signature_hex,
            account.address,
            request.nonce,
            request.cid,
        )
        lookup = self.dht.lookup(request.olc)
        if lookup.found and lookup.content is not None:
            deployed = self.factory.instance_for(request.olc)
            if deployed is None:
                raise PolSystemError(f"hypercube references unknown contract {lookup.content.contract_id}")
            handle = self.client.attach_and_call_async(
                deployed, "attacherAPI.insert_data", [record, prover.did_uint], sender=account
            )
            submission = PendingSubmission(handle=handle, olc=request.olc, was_deploy=False, deployed=deployed)
            prover.track_submission(submission)
            return submission
        in_flight = self.factory.pending_deploy_for(request.olc)
        if in_flight is not None:
            handle = self.client.attach_and_call_after(
                in_flight, "attacherAPI.insert_data", [record, prover.did_uint], sender=account
            )
            submission = PendingSubmission(handle=handle, olc=request.olc, was_deploy=False)

            def resolve_instance(settled: OpHandle) -> None:
                if settled.error is None:
                    submission.deployed = settled.value

            in_flight.add_done_callback(resolve_instance)
            prover.track_submission(submission)
            return submission
        handle = self.factory.deploy_instance_async(request.olc, account, prover.did_uint, record)

        def register_location(settled: OpHandle) -> None:
            if settled.error is None:
                self.dht.register_contract(request.olc, settled.value.ref)

        handle.add_done_callback(register_location)
        submission = PendingSubmission(handle=handle, olc=request.olc, was_deploy=True)
        prover.track_submission(submission)
        return submission

    @collector_paused()
    def submit_many(self, submissions: list[tuple[str, ProofRequest, LocationProof]]) -> list[SubmissionOutcome]:
        """Pipeline many provers' submissions on the shared event queue.

        All operations are started up front (their transactions
        interleave in the same blocks) and the queue is driven once
        until every one settles -- the system-level counterpart of the
        bench harness's concurrent mode.
        """
        pending = [self.submit_async(name, request, proof) for name, request, proof in submissions]
        drain(self.chain, [p.handle for p in pending])
        for prover_name, request, _ in submissions:
            tracker = self.provers.get(prover_name)
            if tracker is not None:
                tracker.settle_submissions()
        return [p.outcome() for p in pending]

    def submit_batched(
        self, prover_name: str, request: ProofRequest, proof: LocationProof, aggregator
    ) -> tuple[ProofFailure, "object | None"]:
        """Route a proof through the batching layer instead of its own tx.

        The aggregator's verifier checks the proof off-chain *now* (the
        acceptance gate -- rejected proofs never reach a batch), the
        record joins the location's buffer, and the eventual anchoring
        transaction is shared by the whole batch
        (:class:`repro.core.batch.BatchAggregator`).  Returns
        ``(outcome, batch)`` where ``batch`` is the
        :class:`~repro.core.batch.AnchoredBatch` when this record filled
        a buffer, None otherwise.
        """
        prover = self.provers[prover_name]
        recorder = self.chain.recorder
        if recorder.enabled:
            root = self._journey_roots.pop((prover_name, request.nonce), None)
            span = recorder.span(
                "proof:submit", track=f"prover:{prover_name}", cat="proof",
                olc=request.olc, parent=root, batched=True,
            )
        else:
            span = None
        prover_public = self.registry.resolve(prover.did).public_key
        outcome = aggregator.verifier.check_record(
            proof, prover.did_uint, request.olc, request.nonce, request.cid,
            prover_public=prover_public,
        )
        if outcome is not ProofFailure.OK:
            if span is not None:
                span.end(error=outcome.name)
            return outcome, None
        record = BatchRecord(
            prover_name=prover_name,
            olc=request.olc,
            did_uint=prover.did_uint,
            record=pol_record(
                proof.hashed_proof_hex,
                proof.signature_hex,
                self.accounts[prover_name].address,
                request.nonce,
                request.cid,
            ),
        )
        if span is not None:
            self._journey_records[(request.olc, prover.did_uint)] = (
                root if root is not None else span.context
            )
        watchtower = self.chain.watchtower
        if watchtower.enabled:
            # Accepted now, anchored later: the batch settlement path
            # resolves the key (via Watchtower.check_batch) only once the
            # member's retained inclusion path verifies against the
            # anchored root.
            watchtower.track_proof(
                (request.olc, prover.did_uint), span.trace_id if span is not None else "",
            )
        batch = aggregator.add(record, submit_span=span)
        return ProofFailure.OK, batch

    @collector_paused()
    def light_verify_many(self, verifier_name: str, batches) -> list[ProofFailure]:
        """Light-verify batched records against their anchored roots.

        The on-chain cost was already paid by each batch's single
        anchoring transaction; here the verifier only reads
        ``batch_map[batch_id]`` (a free contract read) and recomputes
        the Merkle root from each record plus the prover's retained
        inclusion path.  No signature re-checks: acceptance ran at
        :meth:`submit_batched` time (re-running them would trip the
        replay screen on the verifier's own nonce log).
        """
        verifier = self.verifiers.get(verifier_name)
        if verifier is None:
            raise PolSystemError(f"{verifier_name!r} is not an accredited verifier")
        recorder = self.chain.recorder
        results: list[ProofFailure] = []
        for batch in batches:
            deployed = self._contract_at(batch.olc)
            anchored_hex = deployed.map_value("batch_map", batch.batch_id)
            root = bytes.fromhex(anchored_hex) if anchored_hex else None
            for record in batch.records:
                journey = (
                    self._journey_records.pop((batch.olc, record.did_uint), None)
                    if recorder.enabled
                    else None
                )
                with recorder.span(
                    "proof:verify", track=f"verifier:{verifier_name}", cat="proof",
                    olc=batch.olc, did=record.did_uint, parent=journey,
                    batch=batch.batch_id,
                ) as span:
                    prover = self.provers.get(record.prover_name)
                    inclusion = (
                        prover.batch_inclusions.get(batch.batch_id)
                        if prover is not None
                        else None
                    )
                    ok = (
                        root is not None
                        and inclusion is not None
                        and inclusion.verify(record.leaf, root)
                    )
                    if ok:
                        recorder.counter("light_verify_total")
                        results.append(ProofFailure.OK)
                    else:
                        recorder.counter("light_verify_failed_total")
                        span.end(error="HASH_MISMATCH")
                        results.append(ProofFailure.HASH_MISMATCH)
        return results

    # -- verifier flows (figure 2.6) -----------------------------------------------------

    def fund_contract(self, verifier_name: str, olc: str, amount: int) -> OpResult:
        """The verifier inserts reward tokens into a location's contract.

        A one-element :meth:`fund_contracts` wave.
        """
        return self.fund_contracts(verifier_name, {olc: amount})[olc]

    @collector_paused()
    def fund_contracts(self, verifier_name: str, amounts: dict[str, int]) -> dict[str, OpResult]:
        """Fund many locations' contracts in one pipelined wave.

        All insert_money transactions share blocks instead of each
        waiting out its own confirmation: serially, funding 100k users'
        locations is tens of thousands of blocked round trips.
        """
        account = self.accounts[verifier_name]
        handles = {
            olc: self._contract_at(olc).api_async(
                "verifierAPI.insert_money", amount, sender=account, pay=amount
            )
            for olc, amount in amounts.items()
        }
        drain(self.chain, list(handles.values()))
        results: dict[str, OpResult] = {}
        for olc, handle in handles.items():
            if handle.error is not None:
                raise handle.error
            results[olc] = handle.op_result
        return results

    def verify_and_reward(self, verifier_name: str, olc: str, did_uint: int) -> ProofFailure:
        """Read the record, check the proof, reward, feed the hypercube.

        A one-element :meth:`verify_many` wave.
        """
        return self.verify_many(verifier_name, [(olc, did_uint)])[0]

    def _start_verify(
        self, verifier: Verifier, verifier_name: str, olc: str, did_uint: int
    ) -> tuple[ProofFailure, OpHandle | None, str]:
        """Off-chain record checks, then launch the on-chain verify.

        Returns ``(outcome, handle, cid)``; the handle is None when the
        record failed the off-chain checks (no transaction submitted).
        """
        deployed = self._contract_at(olc)
        raw = deployed.map_value("easy_map", did_uint)
        if raw is None:
            raise PolSystemError(f"no record for DID {did_uint} in contract {deployed.ref}")
        fields = parse_pol_record(raw)
        prover_public = None
        prover_did = self.registry.did_for_uint(did_uint)
        if prover_did is not None:
            prover_public = self.registry.resolve(prover_did).public_key
        outcome = verifier.check_stored_record(
            hashed_proof_hex=str(fields["hashed_proof"]),
            signature_hex=str(fields["signed_proof"]),
            did=did_uint,
            olc=olc,
            nonce=int(fields["nonce"]),
            cid=str(fields["cid"]),
            prover_public=prover_public,
            hint_keys=self._witness_cells.get(olc[:8]),
        )
        if outcome is not ProofFailure.OK:
            return outcome, None, ""
        handle = deployed.api_async(
            "verifierAPI.verify", did_uint, str(fields["wallet"]), sender=self.accounts[verifier_name]
        )
        return ProofFailure.OK, handle, str(fields["cid"])

    def _publish_verified(self, verifier_name: str, olc: str, cid: str) -> None:
        """Post-reward bookkeeping: feed the hypercube, keep the report."""
        with self.chain.recorder.span(
            "dht:publish", track=f"verifier:{verifier_name}", cat="dht", olc=olc
        ):
            self.dht.append_cid(olc, cid)
        # Keep verified reports alive: replicate on the gateway so they
        # survive the uploader dropping its copy.
        try:
            self.ipfs.replicate(cid, "gateway")
        except Exception:
            pass  # already gone (nothing to keep) or already replicated

    @collector_paused()
    def verify_many(self, verifier_name: str, targets: list[tuple[str, int]]) -> list[ProofFailure]:
        """Verify and reward many records in one pipelined wave.

        Each record's off-chain checks run up front (they read state the
        submission wave already settled), every accepted record's
        ``verifierAPI.verify`` transaction is in flight at once, and each
        journey's verify span still closes at its own confirmation time.
        Serially, verification is the long pole at scale: one blocked
        consensus round trip per user.
        """
        verifier = self.verifiers.get(verifier_name)
        if verifier is None:
            raise PolSystemError(f"{verifier_name!r} is not an accredited verifier")
        recorder = self.chain.recorder
        results: list[ProofFailure] = [ProofFailure.OK] * len(targets)
        pending: list[OpHandle] = []
        for index, (olc, did_uint) in enumerate(targets):
            journey = self._journey_records.pop((olc, did_uint), None) if recorder.enabled else None
            span = recorder.span(
                "proof:verify", track=f"verifier:{verifier_name}", cat="proof",
                olc=olc, did=did_uint, parent=journey,
            )
            with recorder.activate(span.context):
                try:
                    outcome, handle, cid = self._start_verify(
                        verifier, verifier_name, olc, did_uint
                    )
                except BaseException as exc:
                    span.end(error=type(exc).__name__)
                    raise
                if handle is None:
                    results[index] = outcome
                    span.end()
                    continue

                def finish(settled: OpHandle, *, span=span, olc=olc, cid=cid) -> None:
                    # Runs under span.context (add_done_callback re-activates
                    # the registration-time trace context).
                    if settled.error is not None:
                        span.end(error=type(settled.error).__name__)
                        return
                    self._publish_verified(verifier_name, olc, cid)
                    span.end()

                handle.add_done_callback(finish)
                pending.append(handle)
        drain(self.chain, pending)
        for handle in pending:
            if handle.error is not None:
                raise handle.error
        return results

    def display_reports(self, olc: str) -> list[bytes]:
        """Figure 3.2: hypercube -> CIDs -> IPFS fetches."""
        lookup = self.dht.lookup(olc)
        if not lookup.found or lookup.content is None:
            return []
        return [self.ipfs.get(cid) for cid in lookup.content.cids]

    # -- helpers ---------------------------------------------------------------------------

    def _contract_at(self, olc: str) -> DeployedContract:
        deployed = self.factory.instance_for(olc)
        if deployed is None:
            raise PolSystemError(f"no contract deployed for location {olc}")
        return deployed
