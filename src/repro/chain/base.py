"""Common chain machinery: accounts, transactions, blocks, mempool.

Both VM families (EVM-style and AVM-style) share this layer.  A
:class:`BaseChain` is bound to a :class:`~repro.simnet.events.EventQueue`
and produces blocks on its profile's cadence; clients submit signed
transactions and then *drive the event queue* until their receipt
confirms, which is how the benchmarks measure end-to-end latency the
same way the thesis's scripts measured wall-clock time against live
testnets.
"""

from __future__ import annotations

import gc
import json
import re
from collections.abc import MutableMapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterator

from repro.crypto.hashing import sha256, sha256_hex
from repro.crypto.keys import KeyPair, PublicKey, Signature
from repro.crypto.merkle import merkle_root
from repro.obs import prof as _prof
from repro.obs.monitor import NULL_WATCHTOWER, NullWatchtower
from repro.obs.recorder import RATIO_BUCKETS, NullRecorder, Span, track_for
from repro.simnet import CongestionProcess, EventQueue, LatencyModel
from repro.chain.params import NetworkProfile


class ChainError(Exception):
    """Base class for chain-level failures."""


class InvalidTransaction(ChainError):
    """The transaction was rejected at admission (signature/nonce/fee)."""


class InsufficientFunds(ChainError):
    """The sender cannot cover value + maximum fee."""


class TransientChainError(ChainError):
    """A submission the provider dropped transiently (retry-safe).

    Models the RPC-level flakiness the thesis's live-testnet scripts hit
    (rate limits, load-balancer 502s, brief mempool-full rejections):
    the transaction itself is valid and an identical resubmission is
    expected to succeed.  Raised only by installed fault injectors;
    :class:`repro.chain.service.ChainService` retries these without
    resyncing or rebuilding.
    """


class NullFaultInjector:
    """No-fault injector: the default wired into every chain.

    The null object mirroring :data:`repro.obs.recorder.NULL_RECORDER` --
    hot paths guard on ``faults.enabled`` so an unfaulted run never pays
    for the hooks and stays byte-identical to pre-fault-layer output.
    :class:`repro.faults.inject.ChainFaultInjector` subclasses this with
    ``enabled = True`` and a real schedule.
    """

    enabled = False

    def on_submit(self, tx: "Transaction") -> None:
        """Chance to reject ``tx`` transiently (raise TransientChainError)."""

    def on_block_begin(self, chain: "BaseChain", block: "Block") -> None:
        """Chance to distort the fee market for this block."""


#: shared no-fault singleton (stateless, safe to share across chains).
NULL_FAULTS = NullFaultInjector()


class DrawMemo:
    """Slot consensus outcomes this process has drawn, keyed by their inputs.

    A slot's draw -- an Algorand sortition round, an EVM proposer and
    committee -- is a pure function of the family, the participant or
    validator set, the selection parameters, the block number and the
    block seed.  Chains that replay one network from one genesis (the
    four user counts of a chapter-5 sweep) meet the same slots, so each
    is drawn once per process and replayed after.  An entry holds atoms
    only (addresses, seats, flags and tuples of them): the collector
    untracks it, and it keeps no chain, credential or validator alive.
    A full memo starts over.
    """

    __slots__ = ("cap", "drawn", "replayed", "_entries")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        #: slot outcomes computed, and slot outcomes served from the memo
        self.drawn = 0
        self.replayed = 0
        self._entries: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> tuple | None:
        """The outcome drawn for ``key``, counted as replayed, or None."""
        outcome = self._entries.get(key)
        if outcome is not None:
            self.replayed += 1
        return outcome

    def put(self, key: tuple, outcome: tuple) -> tuple:
        """Keep a freshly drawn ``outcome``; returns it."""
        self.drawn += 1
        entries = self._entries
        if len(entries) >= self.cap:
            entries.clear()
        entries[key] = outcome
        return outcome


#: the process's one draw memo, shared by every chain.  2,048 entries
#: cover the 644 distinct slots of the 13 chapter-5 campaigns with room
#: to spare, at about 360 bytes each (see DESIGN.md, "Slot draws").
SLOT_DRAWS = DrawMemo(cap=2048)


class TxStatus(Enum):
    """Lifecycle of a submitted transaction."""

    PENDING = "pending"
    SUCCESS = "success"
    REVERTED = "reverted"


class TxState(Enum):
    """Client-observed lifecycle of a :class:`TxHandle`."""

    SUBMITTED = "submitted"
    CONFIRMED = "confirmed"
    REJECTED = "rejected"


@dataclass(slots=True)
class Account:
    """A chain account: key pair, chain-specific address, local nonce."""

    keypair: KeyPair
    address: str
    nonce: int = 0

    @property
    def public(self) -> PublicKey:
        """The account's public key."""
        return self.keypair.public

    def next_nonce(self) -> int:
        """Return the current nonce and advance it (client-side tracking)."""
        value = self.nonce
        self.nonce += 1
        return value


@dataclass(slots=True)
class Transaction:
    """A signed transaction.

    ``kind`` is one of ``"transfer"``, ``"create"`` (contract/app
    deployment) or ``"call"`` (message/application call).  ``data`` is a
    JSON-serializable payload interpreted by the chain's VM adapter.  A
    transaction included in a block holds None for ``data`` and
    ``signature``; its txid stays cached from admission.
    """

    sender: str
    nonce: int
    kind: str
    to: str | None
    value: int
    data: dict[str, Any] = field(default_factory=dict)
    gas_limit: int = 0
    max_fee_per_gas: int = 0  # EVM, base units per gas
    priority_fee_per_gas: int = 0  # EVM
    flat_fee: int = 0  # AVM
    signature: Signature | None = None
    #: cached txid: set by the first read, replaced by admission (which
    #: hashes the body as it stands then), reset by any field write.
    _txid: str | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value: Any) -> None:
        _set_slot(self, name, value)
        if name[0] != "_":
            _set_slot(self, "_txid", None)

    def signing_payload(self) -> bytes:
        """Canonical bytes covered by the signature.

        Byte-for-byte the compact sorted-key JSON encoding of the body;
        the fixed outer shell is assembled directly (the keys and their
        order are known) and only ``data`` goes through the JSON
        encoder -- the kernel signs and verifies hundreds of thousands
        of payloads per large run.  Built afresh on every call and never
        kept: signing and admission each read it once.
        """
        data_json = _encode_data(self.data)
        to_json = "null" if self.to is None else _json_str(self.to)
        return (
            f'{{"data":{data_json},"flat_fee":{self.flat_fee}'
            f',"gas_limit":{self.gas_limit},"kind":{_json_str(self.kind)}'
            f',"max_fee_per_gas":{self.max_fee_per_gas},"nonce":{self.nonce}'
            f',"priority_fee_per_gas":{self.priority_fee_per_gas}'
            f',"sender":{_json_str(self.sender)},"to":{to_json}'
            f',"value":{self.value}}}'
        ).encode()

    @property
    def txid(self) -> str:
        """The transaction hash (covers the signature)."""
        txid = self._txid
        if txid is None:
            txid = self._seal(self.signing_payload())
        return txid

    def _seal(self, payload: bytes) -> str:
        """Hash ``payload`` and the signature into the txid and cache it."""
        tail = self.signature.to_bytes() if self.signature else b""
        txid = sha256_hex(payload, tail)
        _set_slot(self, "_txid", txid)
        return txid


_set_slot = object.__setattr__


def _json_default(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    raise TypeError(f"unserializable transaction field {type(value).__name__}")


def _data_encoder() -> Callable[[Any], str]:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"),
    default=_json_default)`` as one encoder built once.

    ``json.dumps`` with arguments builds a new encoder on every call,
    most of a payload's cost; the C encoder bound once (as ``json``
    binds it internally) gives the same text about three times faster.
    """
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json_default).encode
    encode = c_make_encoder(None, _json_default, encode_basestring_ascii, None, ":", ",", True, False, True)
    return lambda value: "".join(encode(value, 0))


_encode_data = _data_encoder()


#: printable ASCII minus ``"`` and ``\`` -- strings the JSON encoder
#: emits verbatim between quotes (addresses, kinds, method names).
_PLAIN_JSON_STR = re.compile(r'^[ !#-\[\]-~]*$').match


def _json_str(value: str) -> str:
    """``json.dumps(value)``, skipping the encoder for plain strings."""
    if _PLAIN_JSON_STR(value):
        return f'"{value}"'
    return json.dumps(value)


@dataclass(slots=True)
class Receipt:
    """The result of an included transaction.

    ``logs`` are the VM's own entries: ``(event, args)`` pairs on the
    EVM, the raw logged byte strings on the AVM (decoded by
    :attr:`repro.reach.runtime.OpResult.events`).
    """

    txid: str
    status: TxStatus = TxStatus.PENDING
    error: str = ""
    block_number: int | None = None
    gas_used: int = 0
    fee_paid: int = 0
    contract_address: str | None = None
    return_value: Any = None
    logs: tuple[Any, ...] = ()
    submitted_at: float = 0.0
    included_at: float | None = None
    confirmed_at: float | None = None

    @property
    def latency(self) -> float | None:
        """Client-observed seconds from submission to confirmation."""
        if self.confirmed_at is None:
            return None
        return self.confirmed_at - self.submitted_at


@dataclass
class Block:
    """A sealed block."""

    number: int
    timestamp: float
    parent_hash: str
    proposer: str
    transactions: list[Transaction]
    tx_root: bytes
    base_fee_per_gas: int = 0
    gas_used: int = 0
    seed: bytes = b""
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def block_hash(self) -> str:
        """Hash committing to the header fields."""
        return sha256_hex(
            self.number.to_bytes(8, "big"),
            self.parent_hash.encode(),
            self.tx_root,
            self.proposer.encode(),
            int(self.timestamp * 1000).to_bytes(8, "big"),
            self.seed,
        )


class TxHandle:
    """A client-side future for one submitted transaction.

    The handle resolves when the transaction's receipt confirms;
    completion callbacks fire from the block-production/confirmation
    event path on the chain's :class:`~repro.simnet.events.EventQueue`,
    so a client never needs to poll-and-drive the queue itself.  Many
    handles can be in flight on the same queue at once -- the basis of
    the pipelined submission paths in the Reach runtime and the bench
    harness.
    """

    def __init__(self, chain: "BaseChain", txid: str):
        self.chain = chain
        self.txid = txid
        self.submitted_at = chain.queue.clock.now
        self._callbacks: list[Callable[["TxHandle"], None]] = []
        chain.subscribe_receipt(txid, self._on_confirmed)

    @property
    def receipt(self) -> Receipt:
        """The transaction's (possibly still pending) receipt."""
        return self.chain.receipt(self.txid)

    @property
    def done(self) -> bool:
        """Whether the transaction has reached confirmation depth."""
        return self.receipt.confirmed_at is not None

    @property
    def state(self) -> TxState:
        """submitted -> confirmed | rejected (reverted at execution)."""
        receipt = self.receipt
        if receipt.confirmed_at is None:
            return TxState.SUBMITTED
        return TxState.CONFIRMED if receipt.status is TxStatus.SUCCESS else TxState.REJECTED

    def add_done_callback(self, callback: Callable[["TxHandle"], None]) -> None:
        """Run ``callback(self)`` at confirmation (now, if already done).

        The ambient trace context at *registration* time is captured and
        re-activated around the callback, so a settlement continuation
        reports into the trace that awaited the transaction rather than
        into whichever block event delivered the receipt.
        """
        recorder = self.chain.recorder
        if recorder.enabled:
            context = recorder.current_context()
            if context is not None:
                inner = callback

                def callback(handle: "TxHandle", _inner=inner, _ctx=context) -> None:
                    with recorder.activate(_ctx):
                        _inner(handle)

        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _on_confirmed(self, receipt: Receipt) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def result(self, max_steps: int = 2_000_000) -> Receipt:
        """Drive the event queue until confirmed (blocking fallback).

        The condition re-reads ``self.txid`` every step, so a handle
        that re-targets itself at a replacement mid-wait (see
        :class:`repro.chain.service.ManagedTxHandle`) waits for that.
        """
        drive(self.chain.queue, lambda: self.done, max_steps=max_steps, chain=self.chain)
        return self.receipt

    def __repr__(self) -> str:
        return f"TxHandle({self.txid[:12]}..., {self.state.value})"


@dataclass
class _MempoolEntry:
    transaction: Transaction
    arrived_at: float
    #: first certified round this entry may be included in (congestion
    #: skip folded in at admission as an absolute round number, so block
    #: production never walks the mempool decrementing counters).
    eligible_round: int
    #: cached ``transaction.txid`` -- computing it hashes the full signing
    #: payload, so the mempool index stores it once at admission.
    txid: str = ""


class _BalanceView(MutableMapping):
    """Dict-shaped view over the chain's struct-of-arrays account state.

    The chain keeps balances as ``address -> slot`` plus a flat
    ``list[int]`` indexed by slot (see :class:`BaseChain`); this view
    preserves the historical ``chain.balances`` mapping API on top of
    it.  Accounts cannot be deleted -- a slot, once assigned, is
    permanent -- matching how real ledgers never forget an address.
    """

    __slots__ = ("_chain",)

    def __init__(self, chain: "BaseChain"):
        self._chain = chain

    def __getitem__(self, address: str) -> int:
        index = self._chain._acct_index.get(address)
        if index is None:
            raise KeyError(address)
        return self._chain._acct_balances[index]

    def __setitem__(self, address: str, value: int) -> None:
        self._chain._acct_balances[self._chain._slot_for(address)] = value

    def __delitem__(self, address: str) -> None:
        raise TypeError("chain accounts cannot be deleted")

    def __iter__(self) -> Iterator[str]:
        return iter(self._chain._acct_index)

    def __len__(self) -> int:
        return len(self._chain._acct_index)


class _ChainMetrics:
    """Pre-keyed recorder handles for the chain's hot-path samples.

    Built once per (chain, recorder) pair; every submit/produce/confirm
    then costs a dict update per sample instead of rebuilding the sorted
    label-tuple key on each call.
    """

    __slots__ = (
        "recorder", "_chain_name", "mempool_depth", "submitted", "replaced",
        "confirmed", "latency", "fee_paid", "blocks", "uncertified",
        "included", "utilization",
    )

    def __init__(self, recorder: NullRecorder, chain_name: str):
        self.recorder = recorder
        self._chain_name = chain_name
        self.mempool_depth = recorder.gauge_handle("chain_mempool_depth", chain=chain_name)
        self.submitted: dict[str, Any] = {}  # tx kind -> counter handle
        self.replaced = recorder.counter_handle("chain_tx_replaced_total", chain=chain_name)
        self.confirmed: dict[str, Any] = {}  # status value -> counter handle
        self.latency = recorder.histogram_handle("chain_tx_latency_seconds", chain=chain_name)
        self.fee_paid = recorder.histogram_handle("chain_fee_paid_base_units", chain=chain_name)
        self.blocks = recorder.counter_handle("chain_blocks_total", chain=chain_name)
        self.uncertified = recorder.counter_handle("chain_uncertified_rounds_total", chain=chain_name)
        self.included = recorder.counter_handle("chain_txs_included_total", chain=chain_name)
        self.utilization = recorder.histogram_handle(
            "chain_block_utilization_ratio", buckets=RATIO_BUCKETS, chain=chain_name
        )

    def submitted_for(self, kind: str) -> Any:
        handle = self.submitted.get(kind)
        if handle is None:
            handle = self.submitted[kind] = self.recorder.counter_handle(
                "chain_tx_submitted_total", chain=self._chain_name, kind=kind
            )
        return handle

    def confirmed_for(self, status: str) -> Any:
        handle = self.confirmed.get(status)
        if handle is None:
            handle = self.confirmed[status] = self.recorder.counter_handle(
                "chain_tx_confirmed_total", chain=self._chain_name, status=status
            )
        return handle


class BaseChain:
    """Shared skeleton of every simulated chain.

    Subclasses provide address derivation, admission-fee policy,
    consensus (block proposer selection and seal metadata), and
    transaction execution (the VM).
    """

    def __init__(self, profile: NetworkProfile, queue: EventQueue | None = None, seed: int = 0):
        self.profile = profile
        self.queue = queue if queue is not None else EventQueue()
        self.seed = seed
        self.blocks: list[Block] = []
        self.receipts: dict[str, Receipt] = {}
        # Struct-of-arrays account state: one stable slot per address, a
        # flat balance array, and a mapping-shaped compatibility view.
        self._acct_index: dict[str, int] = {}
        self._acct_balances: list[int] = []
        self.balances: MutableMapping[str, int] = _BalanceView(self)
        self.known_keys: dict[str, PublicKey] = {}
        # Mempool as an insertion-ordered index: txid -> entry plus a
        # (sender, nonce) -> txid map, so replace-by-nonce admission and
        # block-inclusion eviction are O(1) instead of list scans.
        self._mempool: dict[str, _MempoolEntry] = {}
        self._mempool_nonce: dict[tuple[str, int], str] = {}
        # Inclusion scheduling state: certified rounds seen so far, the
        # not-yet-eligible entries bucketed by the round that frees them,
        # and the persistent fee-ordered ready list.  Each ready pair is
        # ((-priority_fee, arrived_at, admission_seq), entry); the seq
        # makes keys unique, so ties keep submission order -- exactly the
        # order the historical per-block stable sort produced -- while
        # leftovers carry over still sorted instead of being re-keyed
        # and re-sorted against the whole mempool every block.
        self._round = 0
        self._admission_seq = 0
        self._eligible: dict[int, list[tuple[tuple[int, float, int], _MempoolEntry]]] = {}
        self._ready: list[tuple[tuple[int, float, int], _MempoolEntry]] = []
        self._receipt_watchers: dict[str, list[Callable[[Receipt], None]]] = {}
        self._observed_nonces: dict[str, int] = {}
        # Per-sender next includable nonce: inclusion is gated so a
        # sender's transactions land in strict nonce order even when
        # congestion skips, inclusion penalties or fee-market price-outs
        # would reorder them (a real chain never executes nonce N+1
        # before N; without this gate large populations do).
        self._next_included_nonce: dict[str, int] = {}
        self.congestion = CongestionProcess(
            mean=profile.congestion_mean,
            volatility=profile.congestion_volatility,
            seed=seed * 7919 + 1,
        )
        self._overhead = LatencyModel(
            base=profile.provider_overhead,
            sigma=profile.overhead_sigma,
            seed=seed * 104729 + 2,
        )
        self._accounts_created = 0
        self._started = False
        self.faults: NullFaultInjector = NULL_FAULTS
        # Supply accounting for the watchtower's conservation invariant:
        # everything the faucet created, everything provably destroyed
        # (burned fees, tips to unknown proposers), everything locked in
        # consensus deposits.  Exact integers, updated where value moves.
        self.minted_total = 0
        self.burned_total = 0
        self.locked_total = 0
        #: block-boundary subscribers called as ``listener(chain, block)``
        #: right after a block (certified or not) is appended.
        self.block_listeners: list[Callable[["BaseChain", Block], None]] = []
        self.watchtower: NullWatchtower = NULL_WATCHTOWER
        self._tx_spans: dict[str, Span] = {}  # open submitted->confirmed windows
        self._block_label = f"{profile.name}-block"  # interned once, not per block
        self._metrics: _ChainMetrics | None = None
        self._slot_inputs: tuple = ()  # see _slot_outcome
        self._genesis()

    @property
    def recorder(self) -> NullRecorder:
        """The telemetry sink, shared with (and owned by) the event queue."""
        return self.queue.recorder

    def _obs(self) -> _ChainMetrics:
        """The pre-keyed handle set for the current recorder (rebuilt on swap)."""
        metrics = self._metrics
        recorder = self.queue.recorder
        if metrics is None or metrics.recorder is not recorder:
            metrics = self._metrics = _ChainMetrics(recorder, self.profile.name)
        return metrics

    def _slot_for(self, address: str) -> int:
        """The address's balance-array slot, assigned on first touch."""
        index = self._acct_index.get(address)
        if index is None:
            index = self._acct_index[address] = len(self._acct_balances)
            self._acct_balances.append(0)
        return index

    # -- hooks ---------------------------------------------------------------

    def _address_for(self, public: PublicKey) -> str:
        """Derive the chain-specific address of a public key."""
        raise NotImplementedError

    def _admission_check(self, tx: Transaction) -> None:
        """Validate fee fields at admission; raise InvalidTransaction."""
        raise NotImplementedError

    def _max_cost(self, tx: Transaction) -> int:
        """Worst-case base units the sender must be able to cover."""
        raise NotImplementedError

    def _execute(self, tx: Transaction, block: Block) -> Receipt:
        """Run ``tx`` inside ``block``; must debit fees and apply effects."""
        raise NotImplementedError

    def _select_proposer(self, block_number: int, seed: bytes) -> tuple[str, dict[str, Any]]:
        """Pick the block proposer; return (address, seal metadata)."""
        raise NotImplementedError

    def _draw(self, block_number: int, seed: bytes) -> tuple:
        """Draw the slot's consensus, updating the duty counters; its outcome as atoms."""
        raise NotImplementedError

    def _replay(self, outcome: tuple) -> None:
        """Apply the duty-counter updates :meth:`_draw` made for ``outcome``."""
        raise NotImplementedError

    def _slot_outcome(self, draw_inputs: tuple, block_number: int, seed: bytes) -> tuple:
        """This slot's :meth:`_draw` outcome, drawn once per process.

        ``draw_inputs`` holds, as atoms, everything the draw reads besides
        the number and seed.  The caller rebuilds it every slot, so a
        changed set (a participant going offline) keys new draws.  An
        unchanged set keeps this chain's first equal tuple, which every
        key it makes then shares.
        """
        inputs = (self.profile.family, draw_inputs)
        if inputs != self._slot_inputs:
            self._slot_inputs = inputs
        key = (self._slot_inputs, block_number, seed)
        outcome = SLOT_DRAWS.get(key)
        if outcome is None:
            return SLOT_DRAWS.put(key, self._draw(block_number, seed))
        self._replay(outcome)
        return outcome

    def _begin_block(self, block: Block) -> None:
        """Subclass hook run before executing transactions (fee market)."""

    def _includable(self, tx: Transaction, block: Block) -> bool:
        """Whether ``tx`` can be included right now (fee-market gate)."""
        return True

    def _inclusion_penalty(self, tx: Transaction) -> int:
        """Extra blocks a transaction waits beyond congestion (size bias)."""
        return 0

    def _block_can_include(self, block: Block) -> bool:
        """Whether this block may carry transactions (consensus gate)."""
        return True

    # -- lifecycle -----------------------------------------------------------

    def _genesis(self) -> None:
        genesis = Block(
            number=0,
            timestamp=self.queue.clock.now,
            parent_hash="0" * 64,
            proposer="genesis",
            transactions=[],
            tx_root=merkle_root([]),
            seed=sha256(b"genesis", self.profile.name.encode(), self.seed.to_bytes(8, "big")),
        )
        self.blocks.append(genesis)

    def start(self) -> None:
        """Begin producing blocks on the profile cadence (idempotent)."""
        if self._started:
            return
        self._started = True
        self.queue.schedule(
            self.profile.block_time, self._produce_block,
            label=self._block_label, inherit_context=False,
        )

    @property
    def height(self) -> int:
        """Number of the latest block."""
        return self.blocks[-1].number

    @property
    def last_block(self) -> Block:
        """The latest sealed block."""
        return self.blocks[-1]

    @property
    def mempool_depth(self) -> int:
        """Transactions admitted but not yet included in a block."""
        return len(self._mempool)

    # -- accounts ------------------------------------------------------------

    def create_account(self, seed: bytes | None = None, funding: int = 0) -> Account:
        """Create (and optionally faucet-fund) a fresh account.

        Mirrors the thesis's support scripts that pre-generate and fund
        N wallets before a simulation run (section 4.4).
        """
        self._accounts_created += 1
        if seed is None:
            seed = f"{self.profile.name}/account/{self.seed}/{self._accounts_created}".encode()
        keypair = KeyPair.from_seed(seed)
        address = self._address_for(keypair.public)
        self.known_keys[address] = keypair.public
        account = Account(keypair=keypair, address=address)
        if funding:
            self.faucet(address, funding)
        return account

    def faucet(self, address: str, amount: int) -> None:
        """Credit ``address`` out of thin air (testnet dispenser)."""
        if amount < 0:
            raise ValueError("faucet amount must be non-negative")
        self._acct_balances[self._slot_for(address)] += amount
        self.minted_total += amount

    def balance_of(self, address: str) -> int:
        """Current balance of ``address`` in base units."""
        index = self._acct_index.get(address)
        return self._acct_balances[index] if index is not None else 0

    # -- transactions --------------------------------------------------------

    def sign(self, account: Account, tx: Transaction) -> Transaction:
        """Attach ``account``'s signature to ``tx`` (sender must match)."""
        if tx.sender != account.address:
            raise InvalidTransaction("transaction sender does not match signing account")
        tx.signature = account.keypair.sign(tx.signing_payload())
        return tx

    # Admission (signature verify, fee checks, mempool insert) is a
    # distinct profile stage; the signature check nests crypto.verify
    # under it.
    @_prof.staged("chain.submit")
    def submit(self, tx: Transaction) -> str:
        """Admit ``tx`` to the mempool; returns its txid.

        Admission checks signature, nonce monotonicity against pending
        state, fee policy and worst-case affordability -- the same
        failures a node provider would surface synchronously.
        """
        self.start()
        if self.faults.enabled:
            self.faults.on_submit(tx)
        if tx._txid in self.receipts:
            # Admitted before: once included it has no body left to check.
            raise InvalidTransaction("duplicate transaction")
        if tx.signature is None:
            raise InvalidTransaction("unsigned transaction")
        public = self.known_keys.get(tx.sender)
        if public is None:
            raise InvalidTransaction(f"unknown sender {tx.sender}")
        # Admission is the payload's last reader: it is built from the
        # fields as they stand now, so a body changed in place after
        # signing fails here, and only the txid over it is kept.
        payload = tx.signing_payload()
        if not public.verify(payload, tx.signature):
            raise InvalidTransaction("bad signature")
        self._admission_check(tx)
        if self.balance_of(tx.sender) < self._max_cost(tx):
            raise InsufficientFunds(
                f"{tx.sender} holds {self.balance_of(tx.sender)} < required {self._max_cost(tx)}"
            )
        txid = tx._seal(payload)
        if txid in self.receipts:
            raise InvalidTransaction("duplicate transaction")
        self._maybe_replace(tx)
        skip = self.congestion.extra_inclusion_blocks() + self._inclusion_penalty(tx)
        entry = _MempoolEntry(
            transaction=tx,
            arrived_at=self.queue.clock.now,
            eligible_round=self._round + skip + 1,
            txid=txid,
        )
        self._mempool[txid] = entry
        self._mempool_nonce[(tx.sender, tx.nonce)] = txid
        self._admission_seq += 1
        pair = (
            (-tx.priority_fee_per_gas, entry.arrived_at, self._admission_seq),
            entry,
        )
        self._eligible.setdefault(entry.eligible_round, []).append(pair)
        self.receipts[txid] = Receipt(txid=txid, submitted_at=self.queue.clock.now)
        observed = self._observed_nonces.get(tx.sender, 0)
        self._observed_nonces[tx.sender] = max(observed, tx.nonce + 1)
        recorder = self.recorder
        if recorder.enabled:
            metrics = self._obs()
            metrics.submitted_for(tx.kind).add()
            metrics.mempool_depth.set(len(self._mempool))
            self._tx_spans[txid] = recorder.span(
                f"tx:{tx.kind}", track=track_for(tx.sender), cat="tx",
                chain=self.profile.name, txid=txid[:12],
            )
        return txid

    def _maybe_replace(self, tx: Transaction) -> None:
        """Replace-by-nonce: evict a pending tx with the same (sender, nonce).

        A fee-bumped resubmission (see
        :meth:`repro.chain.service.ChainService.bump_fees`) must not land
        alongside the copy it replaces -- at most one transaction per
        account nonce can ever execute.  The replacement must strictly
        outbid the pending copy, otherwise it is rejected as underpriced
        (geth's replace-by-fee rule, flat-fee analog for AVM).  The
        ``(sender, nonce)`` index makes the lookup O(1); historically
        this scanned the whole mempool per submission.
        """
        pending_txid = self._mempool_nonce.get((tx.sender, tx.nonce))
        if pending_txid is None:
            return
        pending = self._mempool[pending_txid].transaction
        if tx.max_fee_per_gas + tx.flat_fee <= pending.max_fee_per_gas + pending.flat_fee:
            raise InvalidTransaction("replacement transaction underpriced")
        del self._mempool[pending_txid]
        del self._mempool_nonce[(tx.sender, tx.nonce)]
        replaced = self.receipts[pending_txid]
        replaced.error = "replaced"
        self._receipt_watchers.pop(pending_txid, None)
        span = self._tx_spans.pop(pending_txid, None)
        if span is not None:
            span.end(status="replaced")
        if self.recorder.enabled:
            self._obs().replaced.add()

    def next_nonce_for(self, address: str) -> int:
        """The chain-observed next nonce for ``address``.

        Covers admitted transactions (ledger + mempool).  Clients that
        advanced a local nonce for a transaction the chain *rejected*
        resync from this value (see :class:`repro.chain.service.ChainService`).
        """
        return self._observed_nonces.get(address, 0)

    def subscribe_receipt(self, txid: str, callback: Callable[[Receipt], None]) -> None:
        """Fire ``callback(receipt)`` when ``txid`` reaches confirmation.

        Fires immediately if the transaction is already confirmed.  The
        callback runs inside the confirmation event, so anything it
        submits lands on the queue at the confirmation timestamp --
        exactly when a blocking client would have acted.
        """
        receipt = self.receipt(txid)
        if receipt.confirmed_at is not None:
            callback(receipt)
            return
        self._receipt_watchers.setdefault(txid, []).append(callback)

    def _notify_confirmed(self, receipt: Receipt) -> None:
        span = self._tx_spans.pop(receipt.txid, None)
        if span is not None:
            extra: dict[str, Any] = {
                "status": receipt.status.value, "block": receipt.block_number,
            }
            if receipt.included_at is not None:
                # Lets the journey analyser split the submitted->confirmed
                # window into mempool-wait and confirmation-depth stages.
                extra["included_at"] = receipt.included_at
            span.end(**extra)
        recorder = self.recorder
        if recorder.enabled:
            metrics = self._obs()
            metrics.confirmed_for(receipt.status.value).add()
            if receipt.latency is not None:
                # Exemplar: the tail-latency bucket names this journey's
                # trace_id, so a p99 outlier is replayable by trace.
                metrics.latency.observe(
                    receipt.latency, span.trace_id if span is not None else None
                )
        if self.watchtower.enabled:
            self.watchtower.observe_confirmation(
                self, receipt, span.trace_id if span is not None else None
            )
        for callback in self._receipt_watchers.pop(receipt.txid, []):
            callback(receipt)

    def receipt(self, txid: str) -> Receipt:
        """Look up the receipt of a submitted transaction."""
        try:
            return self.receipts[txid]
        except KeyError:
            raise ChainError(f"unknown transaction {txid}") from None

    # -- block production ----------------------------------------------------

    def _produce_block(self) -> None:
        self.congestion.step()
        parent = self.blocks[-1]
        number = parent.number + 1
        seed = sha256(parent.seed, number.to_bytes(8, "big"))
        proposer, seal = self._select_proposer(number, seed)
        block = Block(
            number=number,
            timestamp=self.queue.clock.now,
            parent_hash=parent.block_hash,
            proposer=proposer,
            transactions=[],
            tx_root=merkle_root([]),
            seed=seed,
            metadata=seal,
        )
        self._begin_block(block)
        if self.faults.enabled:
            self.faults.on_block_begin(self, block)
        recorder = self.recorder
        instrumented = recorder.enabled
        metrics = self._obs() if instrumented else None
        if metrics is not None:
            metrics.mempool_depth.set(len(self._mempool))

        if not self._block_can_include(block):
            # An uncertified round carries no transactions; pending ones
            # wait for the next certified round (liveness degradation,
            # not loss).
            if metrics is not None:
                metrics.blocks.add()
                metrics.uncertified.add()
            self.blocks.append(block)
            if self.block_listeners:
                for listener in self.block_listeners:
                    listener(self, block)
            self.queue.schedule(
                self.profile.block_time, self._produce_block,
                label=self._block_label, inherit_context=False,
            )
            return

        profiler = _prof.ACTIVE
        profiling = profiler.enabled

        self._round += 1
        ready = self._ready
        freed = self._eligible.pop(self._round, None)
        if freed:
            # Leftovers are already sorted; timsort folds the new batch
            # in near-linearly and unique keys keep ties in submission
            # order, matching the historical whole-mempool stable sort.
            if profiling:
                profiler.enter("mempool.schedule")
            ready.extend(freed)
            ready.sort()
            if profiling:
                profiler.exit()

        included: list[Transaction] = []
        leftover: list[tuple[tuple[int, float, int], _MempoolEntry]] = []
        pending_confirms: list[tuple[float, Callable[[], Any]]] = []
        mempool = self._mempool
        gas_budget = self.profile.block_gas_limit
        next_nonce = self._next_included_nonce
        for pair in ready:
            entry = pair[1]
            if mempool.get(entry.txid) is not entry:
                continue  # replaced after admission; drop silently
            tx = entry.transaction
            if tx.nonce != next_nonce.get(tx.sender, 0):
                leftover.append(pair)
                continue  # an earlier nonce from this sender is still pending
            if tx.gas_limit > gas_budget:
                leftover.append(pair)
                continue  # stays queued for the next block
            if not self._includable(tx, block):
                leftover.append(pair)
                continue  # priced out; waits for the fee market to relax
            if profiling:
                profiler.enter("vm.execute")
                try:
                    receipt = self._execute(tx, block)
                finally:
                    profiler.exit()
            else:
                receipt = self._execute(tx, block)
            receipt.block_number = number
            receipt.included_at = self.queue.clock.now
            included.append(tx)
            # Admission was the signature's last reader and execution the
            # data's; the block keeps the other fields and the txid.
            _set_slot(tx, "data", None)
            _set_slot(tx, "signature", None)
            gas_budget -= receipt.gas_used
            block.gas_used += receipt.gas_used
            del mempool[entry.txid]
            self._mempool_nonce.pop((tx.sender, tx.nonce), None)
            next_nonce[tx.sender] = tx.nonce + 1
            if metrics is not None:
                # The fee histogram's bucket exemplar points at this
                # journey's trace (muted spans carry "" and are skipped).
                span = self._tx_spans.get(entry.txid)
                metrics.fee_paid.observe(
                    receipt.fee_paid, span.trace_id if span is not None else None
                )
            delay, confirm = self._confirmation_entry(receipt)
            if delay <= 0:
                confirm()
            else:
                pending_confirms.append((delay, confirm))
        self._ready = leftover
        if pending_confirms:
            # One heap-resident slot settles the whole block's receipts;
            # each keeps its own sampled delay and sequence position.
            self.queue.schedule_slot(pending_confirms, label="confirm")

        block.transactions = included
        block.tx_root = merkle_root([tx.txid.encode() for tx in included])
        self.blocks.append(block)
        if metrics is not None:
            metrics.blocks.add()
            if included:
                metrics.included.add(float(len(included)))
            # Gas-metered families report real utilization; flat-fee
            # chains (gas_used 0) report 0 and rely on tx counts instead.
            limit = self.profile.block_gas_limit
            metrics.utilization.observe(block.gas_used / limit if limit else 0.0)
        if self.block_listeners:
            for listener in self.block_listeners:
                listener(self, block)
        self.queue.schedule(
            self.profile.block_time, self._produce_block,
            label=self._block_label, inherit_context=False,
        )

    def _confirmation_entry(self, receipt: Receipt) -> tuple[float, Callable[[], None]]:
        """The (delay, callback) pair that settles one receipt.

        The provider overhead is sampled here, in inclusion order; the
        block's pairs then settle through one slot event.
        """
        delay = self.profile.confirmation_depth * self.profile.block_time + self._overhead.sample().total

        def confirm() -> None:
            receipt.confirmed_at = self.queue.clock.now
            self._notify_confirmed(receipt)

        return delay, confirm

    # -- internal value movement ----------------------------------------------

    def _debit(self, address: str, amount: int) -> None:
        index = self._acct_index.get(address)
        balance = self._acct_balances[index] if index is not None else 0
        if balance < amount:
            raise InsufficientFunds(f"{address} holds {balance} < {amount}")
        if index is not None:
            self._acct_balances[index] = balance - amount

    def _credit(self, address: str, amount: int) -> None:
        self._acct_balances[self._slot_for(address)] += amount


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause automatic cyclic garbage collection for a wave.

    A wave (:func:`drive`, and the facade's ``*_many`` calls that build
    every plan before they drain) allocates hundreds of thousands of
    long-lived objects -- handles, receipts, spans, contract state --
    and makes no cyclic garbage, so the collector's passes inside it
    only rescan live objects; at 10k provers its full passes, over a
    heap of 600k tracked objects, freed nothing.  On exit the collector
    is re-enabled only if it was enabled on entry: nested waves are a
    no-op and a caller that disabled it keeps it disabled.  Any cycle a
    wave does make is found by the first automatic pass after it.

    It neither freezes nor collects.  ``gc.freeze()`` would move every
    object alive now out of the collector's reach for good, and a
    dropped world (chain, queue, facade) is cyclic, so each run a
    process builds would leak.  A ``gc.collect()`` on exit would be a
    full pass over the same live heap: the cost this pause avoids.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def drive(
    queue: EventQueue,
    until: Callable[[], bool],
    max_steps: int = 200_000,
    chain: "BaseChain | None" = None,
) -> None:
    """Step ``queue`` until ``until()`` holds; guard against stalls.

    The one waiting primitive: handles block through it, and tests and
    tools pass their own condition.  Stalls raise with a diagnostic
    snapshot -- the pending-event labels and, when ``chain`` is given,
    its mempool depth -- instead of a bare overrun.  The cyclic garbage
    collector is paused for the wait (:func:`collector_paused`).
    """
    with collector_paused():
        steps = 0
        while not until():
            if queue.step() is None:
                raise ChainError(_stall_report("event queue ran dry", queue, chain))
            steps += 1
            if steps > max_steps:
                raise ChainError(
                    _stall_report(f"condition not reached within {max_steps} steps", queue, chain)
                )


def drain(chain: "BaseChain", handles: list[Any]) -> None:
    """Drive ``chain``'s queue until every handle in ``handles`` settles.

    A wave's wait: each handle (a :class:`TxHandle` or an operation
    future) decrements a countdown from its done callback, which keeps
    the drive predicate O(1); polling ``all(h.done ...)`` per event step
    is O(n) and turns large waves quadratic.  The step bound is only a
    stall guard.
    """
    if not handles:
        return
    remaining = [len(handles)]

    def settled(_handle: Any) -> None:
        remaining[0] -= 1

    for handle in handles:
        handle.add_done_callback(settled)
    drive(
        chain.queue,
        lambda: remaining[0] <= 0,
        max_steps=max(2_000_000, 100 * len(handles)),
        chain=chain,
    )


def _stall_report(reason: str, queue: EventQueue, chain: "BaseChain | None") -> str:
    """Summarize what the queue was doing when a drive gave up."""
    labels = queue.pending_labels()
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    summary = ", ".join(f"{label} x{count}" for label, count in sorted(counts.items()))
    parts = [reason, f"{len(labels)} pending event(s)"]
    if summary:
        parts.append(f"labels: {summary}")
    if chain is not None:
        parts.append(f"mempool depth {chain.mempool_depth}")
    if queue.recorder.enabled:
        dropped = getattr(queue.recorder, "spans_dropped", 0)
        if dropped:
            parts.append(f"{dropped} span(s) dropped at MAX_SPANS")
        metrics = queue.recorder.render_compact()
        if metrics:
            parts.append(f"metrics: {metrics}")
    return "; ".join(parts)
