"""The connector runtime: deploy, attach and call on any simulated chain.

Per-network transaction ceremonies (these counts are what the thesis's
latency measurements aggregate, section 5.1.5):

===========  ======================================================
network      transactions per operation
===========  ======================================================
EVM deploy   2: contract creation, creator ``publish0`` data insert
EVM attach   2: attach handshake + the API call
AVM deploy   4: app create, app-account funding, opt-in, ``publish0``
             ("Algorand executed more transactions ... in the
             deployment phase, due to the design of the network")
AVM attach   2: opt-in + the API call
===========  ======================================================

Views never transact: they evaluate the view IR against chain state
locally ("their use does not cause any cost", section 4.1.2).

Every publish and API argument is checked against its declared surface
type before a transaction is built, so an ill-typed one raises
:class:`~repro.reach.types.ReachTypeError` on every family and costs
no fee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.chain.base import Account, BaseChain, Receipt, TxHandle, TxStatus, drive
from repro.chain.service import ChainService
from repro.obs.recorder import track_for
from repro.reach.compiler import CompiledContract
from repro.reach.ir import IRFunction
from repro.reach.types import ReachTypeError

#: extra grouped budget transactions per Algorand app call (opcode pooling)
ALGO_BUDGET_TXNS = 1
#: microAlgos sent to the application account at deploy: exactly the
#: account minimum balance, which stays reserved and never counts as
#: spendable contract balance.
ALGO_APP_FUNDING = 100_000
EVM_CREATE_GAS_LIMIT = 4_000_000
EVM_CALL_GAS_LIMIT = 800_000


class ReachRuntimeError(Exception):
    """A runtime-level failure (bad method, wrong chain family)."""


class ReachCallError(ReachRuntimeError):
    """An on-chain call reverted; carries the receipt."""

    def __init__(self, receipt: Receipt):
        super().__init__(f"call reverted: {receipt.error}")
        self.receipt = receipt


@dataclass(slots=True)
class OpResult:
    """Aggregated outcome of one logical operation (1..n transactions)."""

    value: Any = None
    receipts: list[Receipt] = field(default_factory=list)

    @property
    def events(self) -> list[tuple[str, tuple]]:
        """Named events emitted across the operation, connector-decoded.

        EVM logs are already ``(event, args)``; AVM app logs are raw
        bytes: ``evt:<name>/<argc>`` markers followed by the argument
        values.
        """
        decoded: list[tuple[str, tuple]] = []
        for receipt in self.receipts:
            entries = receipt.logs
            index = 0
            while index < len(entries):
                entry = entries[index]
                if not isinstance(entry, bytes):
                    decoded.append(entry)
                    index += 1
                    continue
                text = entry.decode("utf-8", errors="replace")
                if text.startswith("evt:") and "/" in text:
                    event_name, _, argc_text = text[4:].rpartition("/")
                    argc = int(argc_text)
                    args = entries[index + 1:index + 1 + argc]
                    # TEAL logs pop the stack top-first: restore source order.
                    decoded.append((event_name, tuple(reversed(args))))
                    index += 1 + argc
                else:
                    index += 1
        return decoded

    @property
    def latency(self) -> float:
        """End-to-end seconds across the operation's transactions."""
        return sum(r.latency or 0.0 for r in self.receipts)

    @property
    def fees(self) -> int:
        """Total base units paid in fees."""
        return sum(r.fee_paid for r in self.receipts)

    @property
    def gas_used(self) -> int:
        """Total gas consumed (0 on flat-fee chains)."""
        return sum(r.gas_used for r in self.receipts)


#: the protocol of an operation plan: a generator that yields awaitables
#: (``TxHandle`` or nested ``OpHandle``) and returns the final value.
OpPlan = Generator[Any, Any, Any]


class OpHandle:
    """A composite future: one logical operation spanning 1..n transactions.

    Drives a *plan* -- a generator modelling the operation's state
    machine (EVM handshake+call, AVM optin+call, the 4-step AVM deploy)
    -- by submitting each step when the previous one confirms.  All
    progress happens inside receipt-subscription callbacks fired from
    the chain's event path, so any number of handles interleave on one
    event queue without anyone polling.

    The plan may yield :class:`~repro.chain.base.TxHandle` futures
    (their receipts are collected onto the operation) or other
    ``OpHandle`` instances (sub-operations owned by someone else, e.g.
    a pending deploy an attacher must wait out; their receipts are not
    absorbed).
    """

    def __init__(
        self,
        chain: BaseChain,
        plan: OpPlan,
        finalize: Callable[["OpResult"], Any] | None = None,
        label: str = "",
        track: str = "",
    ):
        self.chain = chain
        self.label = label
        self.receipts: list[Receipt] = []
        self.value: Any = None
        self.error: Exception | None = None
        self.done = False
        self.started_at = chain.queue.clock.now
        self.finished_at: float | None = None
        self._plan = plan
        self._finalize = finalize
        self._callbacks: list[Callable[["OpHandle"], None]] = []
        recorder = chain.recorder
        # Opened before the first _advance: a plan that fails
        # synchronously settles (and must close the span) immediately.
        self._span = (
            recorder.span(label or "op", track=track or "ops", cat="op") if recorder.enabled else None
        )
        #: the operation span's own trace context; re-activated around
        #: every plan step so each transaction of a multi-step ceremony
        #: parents to the op span (not to whatever was ambient when the
        #: confirming block event fired).
        self._context = self._span.context if self._span is not None else None
        self._advance(None)

    # -- state machine ---------------------------------------------------------

    @property
    def trace_id(self) -> str:
        """The trace this operation's spans belong to ("" untraced)."""
        return self._span.trace_id if self._span is not None else ""

    def _advance(self, completed: Any) -> None:
        with self.chain.recorder.activate(self._context):
            self._advance_step(completed)

    def _advance_step(self, completed: Any) -> None:
        if isinstance(completed, TxHandle):
            self.receipts.append(completed.receipt)
        try:
            step = self._plan.send(completed)
        except StopIteration as stop:
            self._settle(stop.value)
            return
        except Exception as failure:  # the plan observed a revert/failure
            self.error = failure
            self._settle(None)
            return
        step.add_done_callback(self._advance)

    def _settle(self, raw: Any) -> None:
        self.finished_at = self.chain.queue.clock.now
        if self.error is None:
            partial = OpResult(value=raw, receipts=self.receipts)
            self.value = self._finalize(partial) if self._finalize else raw
        if self._span is not None:
            self._span.end(
                transactions=len(self.receipts),
                error=type(self.error).__name__ if self.error is not None else "",
            )
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- future API ------------------------------------------------------------

    @property
    def op_result(self) -> OpResult:
        """The aggregated outcome (value + receipts) once settled."""
        return OpResult(value=self.value, receipts=self.receipts)

    @property
    def span(self) -> float:
        """Client-perceived seconds from initiation to final confirmation.

        This is what the concurrent bench harness records per user: the
        wall span off the handle's own timestamps, not the sum of
        receipt latencies (steps of *different* users overlap).
        """
        end = self.finished_at if self.finished_at is not None else self.chain.queue.clock.now
        return end - self.started_at

    def add_done_callback(self, callback: Callable[["OpHandle"], None]) -> None:
        """Run ``callback(self)`` at settlement (now, if already done).

        As with :meth:`~repro.chain.base.TxHandle.add_done_callback`,
        the trace context at registration time is re-activated around
        the callback so settlement continuations stay in their trace.
        """
        recorder = self.chain.recorder
        if recorder.enabled:
            context = recorder.current_context()
            if context is not None:
                inner = callback

                def callback(handle: "OpHandle", _inner=inner, _ctx=context) -> None:
                    with recorder.activate(_ctx):
                        _inner(handle)

        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def wait(self) -> "OpHandle":
        """Drive the event queue until settled; re-raise any failure."""
        drive(self.chain.queue, lambda: self.done, max_steps=500_000, chain=self.chain)
        if self.error is not None:
            raise self.error
        return self

    def __repr__(self) -> str:
        state = "done" if self.done else "in-flight"
        return f"OpHandle({self.label or 'op'}, {state}, {len(self.receipts)} receipt(s))"


@dataclass
class DeployedContract:
    """A handle on a live contract instance."""

    compiled: CompiledContract
    chain: BaseChain
    client: "ReachClient"
    ref: str  # contract address (EVM) or app id string (AVM)
    creator: str
    deploy_result: OpResult

    def api(self, method: str, *args: Any, sender: Account, pay: int = 0) -> OpResult:
        """Call an API method (one transaction); raise on revert."""
        return self.client.call(self, method, list(args), sender=sender, pay=pay)

    def api_async(self, method: str, *args: Any, sender: Account, pay: int = 0) -> OpHandle:
        """Non-blocking :meth:`api`: returns the operation's future."""
        return self.client.call_async(self, method, list(args), sender=sender, pay=pay)

    def attach_and_call(self, method: str, *args: Any, sender: Account, pay: int = 0) -> OpResult:
        """The full 2-transaction *attach operation* the thesis measures."""
        handle = self.client.attach_and_call_async(self, method, list(args), sender=sender, pay=pay)
        return handle.wait().op_result

    def attach_and_call_async(self, method: str, *args: Any, sender: Account, pay: int = 0) -> OpHandle:
        """Non-blocking attach operation: optin/handshake then the call."""
        return self.client.attach_and_call_async(self, method, list(args), sender=sender, pay=pay)

    def timeout(self, phase_index: int, sender: Account) -> OpResult:
        """Fire a phase timeout (anyone may call it after the deadline)."""
        return self.client.call(self, f"timeout_{phase_index}", [], sender=sender, pay=0)

    def view(self, name: str) -> Any:
        """Evaluate a View for free against current chain state."""
        return self.client.view(self, name)

    def map_value(self, map_name: str, key: int) -> Any:
        """Read a Map entry for free (the verifier's filter-by-DID read).

        Returns None when the key is absent.
        """
        slot = self.compiled.ir.map_slots.get(map_name)
        if slot is None:
            raise ReachRuntimeError(f"unknown map {map_name!r}")
        reader = _StateReader(self.client, self)
        value = reader.map_get(slot, key)
        if isinstance(value, bytes):
            return value.decode("utf-8", errors="replace")
        return value

    def global_value(self, name: str) -> Any:
        """Read one contract global for free (e.g. ``_phase``, ``_deadline``).

        The protocol globals drive the adversary replay harness: the
        phase counter decides halt, the deadline decides how far a
        ``@clock`` schedule step must advance the simulated clock.
        """
        return _StateReader(self.client, self).get_global(name)

    @property
    def balance(self) -> int:
        """The contract account's balance in base units."""
        return self.client.contract_balance(self)


class ReachClient:
    """One compiled source, any connector: the blockchain-agnostic client."""

    def __init__(self, chain: BaseChain, policy=None):
        self.chain = chain
        self.family = chain.profile.family
        if self.family not in ("evm", "avm"):
            raise ReachRuntimeError(f"unsupported chain family {self.family}")
        # policy: an optional repro.faults RetryPolicy arming stuck-tx
        # recovery (timeout/backoff/fee-bump) on every submission.
        self.service = ChainService(chain, policy=policy)
        self._code_hashes: dict[str, str] = {}

    # -- deploy ---------------------------------------------------------------

    def deploy(self, compiled: CompiledContract, creator: Account, publish_args: list[Any]) -> DeployedContract:
        """Deploy + creator data insert (the thesis's *deploy operation*)."""
        return self.deploy_async(compiled, creator, publish_args).wait().value

    def deploy_async(self, compiled: CompiledContract, creator: Account, publish_args: list[Any]) -> OpHandle:
        """Non-blocking deploy; the handle's value is the DeployedContract.

        The multi-step ceremony (EVM create+publish, AVM
        create/fund/optin/publish) runs as an event-driven state
        machine: each transaction is submitted from the previous one's
        confirmation callback.
        """
        _check_args(compiled, "publish0", publish_args)
        lint = compiled.lint_report()
        if lint.has_errors:
            failures = "; ".join(
                f.render() for f in lint.findings if f.severity == "error"
            )
            raise ReachRuntimeError(f"refusing to deploy: lint errors: {failures}")
        if self.family == "evm":
            plan = self._deploy_evm_plan(compiled, creator, publish_args)
        else:
            plan = self._deploy_avm_plan(compiled, creator, publish_args)

        def finalize(partial: OpResult) -> DeployedContract:
            return DeployedContract(
                compiled=compiled,
                chain=self.chain,
                client=self,
                ref=partial.value,
                creator=creator.address,
                deploy_result=OpResult(receipts=partial.receipts),
            )

        return OpHandle(
            self.chain, plan, finalize=finalize, label=f"deploy:{compiled.name}", track=track_for(creator.address)
        )

    def _deploy_evm_plan(self, compiled: CompiledContract, creator: Account, publish_args: list[Any]) -> OpPlan:
        code_hash = self._code_hashes.get(compiled.name)
        if code_hash is None:
            code_hash = self.chain.register_code(compiled.evm_code)
            self._code_hashes[compiled.name] = code_hash
        create = self.service.build(
            creator, "create", data={"code_hash": code_hash, "args": []}, gas_limit=EVM_CREATE_GAS_LIMIT
        )
        create_receipt = (yield self.service.submit(creator, create)).receipt
        if create_receipt.status is not TxStatus.SUCCESS:
            raise ReachCallError(create_receipt)
        address = create_receipt.contract_address
        publish = self.service.build(
            creator,
            "call",
            to=address,
            data={"selector": "publish0", "args": publish_args},
            gas_limit=EVM_CALL_GAS_LIMIT,
        )
        publish_receipt = (yield self.service.submit(creator, publish)).receipt
        if publish_receipt.status is not TxStatus.SUCCESS:
            raise ReachCallError(publish_receipt)
        return address

    def _deploy_avm_plan(self, compiled: CompiledContract, creator: Account, publish_args: list[Any]) -> OpPlan:
        chain = self.chain
        program_hash = self._code_hashes.get(compiled.name)
        if program_hash is None:
            program_hash = chain.register_program(compiled.teal_source)
            self._code_hashes[compiled.name] = program_hash

        create = self.service.build(creator, "create", data={"program_hash": program_hash, "args": []})
        create_receipt = (yield self.service.submit(creator, create)).receipt
        if create_receipt.status is not TxStatus.SUCCESS:
            raise ReachCallError(create_receipt)
        app_id = int(create_receipt.contract_address)
        app_address = chain.app_address(app_id)

        fund = self.service.build(creator, "transfer", to=app_address, value=ALGO_APP_FUNDING)
        yield self.service.submit(creator, fund)

        optin = self.service.build(creator, "call", data={"app_id": app_id, "on_complete": "optin", "args": []})
        yield self.service.submit(creator, optin)

        publish = self.service.build(
            creator,
            "call",
            data={"app_id": app_id, "args": ["publish0", *publish_args], "budget_txns": ALGO_BUDGET_TXNS},
        )
        publish_receipt = (yield self.service.submit(creator, publish)).receipt
        if publish_receipt.status is not TxStatus.SUCCESS:
            raise ReachCallError(publish_receipt)
        return str(app_id)

    # -- attach + calls ----------------------------------------------------------

    def _attach_plan(self, deployed: DeployedContract, account: Account) -> OpPlan:
        if self.family == "evm":
            handshake = self.service.build(account, "transfer", to=deployed.ref, value=0, gas_limit=21_000)
        else:
            handshake = self.service.build(
                account, "call", data={"app_id": int(deployed.ref), "on_complete": "optin", "args": []}
            )
        yield self.service.submit(account, handshake)
        return None

    def call(
        self,
        deployed: DeployedContract,
        method: str,
        args: list[Any],
        sender: Account,
        pay: int = 0,
    ) -> OpResult:
        """One API-method transaction; decodes the return value."""
        return self.call_async(deployed, method, args, sender=sender, pay=pay).wait().op_result

    def call_async(
        self,
        deployed: DeployedContract,
        method: str,
        args: list[Any],
        sender: Account,
        pay: int = 0,
    ) -> OpHandle:
        """Non-blocking API call; the handle's value is the return value."""
        plan = self._call_plan(deployed, method, args, sender, pay, attach=False)
        return OpHandle(self.chain, plan, label=f"call:{method}", track=track_for(sender.address))

    def _call_plan(
        self,
        deployed: DeployedContract,
        method: str,
        args: list[Any],
        sender: Account,
        pay: int,
        attach: bool,
    ) -> OpPlan:
        function = deployed.compiled.ir.functions.get(method)
        if function is None:
            raise ReachRuntimeError(f"unknown method {method!r}")
        _check_args(deployed.compiled, method, args)
        if attach:
            yield from self._attach_plan(deployed, sender)
        if self.family == "evm":
            tx = self.service.build(
                sender,
                "call",
                to=deployed.ref,
                value=pay,
                data={"selector": method, "args": args},
                gas_limit=EVM_CALL_GAS_LIMIT,
            )
            receipt = (yield self.service.submit(sender, tx)).receipt
            if receipt.status is not TxStatus.SUCCESS:
                raise ReachCallError(receipt)
            return receipt.return_value
        tx = self.service.build(
            sender,
            "call",
            value=pay,
            data={"app_id": int(deployed.ref), "args": [method, *args], "budget_txns": ALGO_BUDGET_TXNS},
        )
        receipt = (yield self.service.submit(sender, tx)).receipt
        if receipt.status is not TxStatus.SUCCESS:
            raise ReachCallError(receipt)
        return _decode_avm_return(function, receipt.return_value)

    def attach_and_call_async(
        self,
        deployed: DeployedContract,
        method: str,
        args: list[Any],
        sender: Account,
        pay: int = 0,
    ) -> OpHandle:
        """The pipelined 2-transaction attach operation as one future."""
        plan = self._call_plan(deployed, method, args, sender, pay, attach=True)
        return OpHandle(self.chain, plan, label=f"attach+call:{method}", track=track_for(sender.address))

    def attach_and_call_after(
        self,
        pending_deploy: OpHandle,
        method: str,
        args: list[Any],
        sender: Account,
    ) -> OpHandle:
        """Attach to a contract whose deploy is still in flight (paying nothing).

        The plan first awaits the (other user's) deploy handle, then
        runs the normal attach operation against the fresh instance.
        The deploy's receipts stay with the deployer; only the
        attacher's own two transactions land on this handle.
        """
        plan = self._attach_after_plan(pending_deploy, method, args, sender)
        return OpHandle(self.chain, plan, label=f"attach-after:{method}", track=track_for(sender.address))

    def _attach_after_plan(
        self,
        pending_deploy: OpHandle,
        method: str,
        args: list[Any],
        sender: Account,
    ) -> OpPlan:
        settled = yield pending_deploy
        if settled.error is not None:
            raise ReachRuntimeError(
                f"cannot attach: the pending deploy failed ({settled.error})"
            )
        deployed = settled.value
        value = yield from self._call_plan(deployed, method, args, sender, 0, attach=True)
        return value

    # -- views ------------------------------------------------------------------

    def view(self, deployed: DeployedContract, name: str) -> Any:
        """Evaluate a View against live chain state (no transaction)."""
        function = deployed.compiled.ir.view_exprs.get(name)
        if function is None:
            raise ReachRuntimeError(f"unknown view {name!r}")
        reader = _StateReader(self, deployed)
        return evaluate_pure(function, reader)

    def contract_balance(self, deployed: DeployedContract) -> int:
        """The contract's *spendable* balance.

        On Algorand the application account keeps a 0.1 ALGO minimum
        balance that the program can never pay out; ``balance()``
        reports what is actually available, matching the EVM semantics.
        """
        if self.family == "evm":
            return self.chain.balance_of(deployed.ref)
        from repro.chain.algorand.chain import MIN_BALANCE

        total = self.chain.balance_of(self.chain.app_address(int(deployed.ref)))
        return max(total - MIN_BALANCE, 0)


def _check_args(compiled: CompiledContract, entry: str, args: list[Any]) -> None:
    """Raise :class:`ReachTypeError` unless ``args`` inhabit ``entry``'s declared types."""
    types = compiled.arg_types.get(entry, ())
    if len(args) != len(types):
        raise ReachTypeError(f"{entry} expects {len(types)} arguments, got {len(args)}")
    for index, (reach_type, value) in enumerate(zip(types, args)):
        try:
            reach_type.check(value)
        except ReachTypeError as error:
            raise ReachTypeError(f"{entry} argument {index}: {error}") from None


def _decode_avm_return(function: IRFunction, raw: Any) -> Any:
    if function.ret_kind is None or raw is None:
        return None
    if function.ret_kind == "uint":
        return int.from_bytes(raw, "big") if isinstance(raw, bytes) else int(raw)
    if isinstance(raw, bytes):
        return raw.decode("utf-8", errors="replace")
    return raw


class _StateReader:
    """Uniform read access to contract state for view evaluation."""

    def __init__(self, client: ReachClient, deployed: DeployedContract):
        self.client = client
        self.deployed = deployed

    def get_global(self, name: str) -> Any:
        key = b"g:" + name.encode()
        if self.client.family == "evm":
            contract = self.client.chain.contracts[self.deployed.ref]
            return contract.storage.get(key, 0)
        app = self.client.chain.apps[int(self.deployed.ref)]
        return app.global_state.get(key, 0)

    def balance(self) -> int:
        return self.client.contract_balance(self.deployed)

    def map_get(self, slot: int, key: int) -> Any:
        if self.client.family == "evm":
            from repro.crypto.hashing import sha256

            contract = self.client.chain.contracts[self.deployed.ref]
            storage_key = sha256(int(slot).to_bytes(32, "big") + int(key).to_bytes(32, "big"))
            value = contract.storage.get(storage_key, 0)
            return None if value == 0 else value
        app = self.client.chain.apps[int(self.deployed.ref)]
        box_name = f"m{slot}:".encode() + int(key).to_bytes(8, "big")
        return app.boxes.get(box_name)


def evaluate_pure(function: IRFunction, reader: _StateReader) -> Any:
    """Interpret a pure (view) IR function against a state reader."""
    stack: list[Any] = []
    labels = function.label_targets()
    pc = 0
    while pc < len(function.instrs):
        irop = function.instrs[pc]
        op, arg = irop.op, irop.arg
        if op == "PUSH":
            stack.append(arg)
        elif op == "POP":
            stack.pop()
        elif op == "GLOAD":
            stack.append(reader.get_global(arg))
        elif op == "BALANCE":
            stack.append(reader.balance())
        elif op == "MGETOR":
            slot, kind = arg
            key = stack.pop()
            default = stack.pop()
            value = reader.map_get(slot, key)
            if value is None:
                stack.append(default)
            elif kind == "uint" and isinstance(value, bytes):
                stack.append(int.from_bytes(value, "big"))
            elif isinstance(value, bytes):
                stack.append(value.decode("utf-8", errors="replace"))
            else:
                stack.append(value)
        elif op == "MHAS":
            key = stack.pop()
            stack.append(1 if reader.map_get(arg, key) is not None else 0)
        elif op in ("ADD", "SUB", "MUL", "DIV", "MOD", "LT", "GT", "LE", "GE", "EQ", "AND", "OR"):
            right = stack.pop()
            left = stack.pop()
            stack.append(_binop(op, left, right))
        elif op == "NOT":
            stack.append(1 if not stack.pop() else 0)
        elif op == "JUMP":
            pc = labels[arg]
            continue
        elif op == "JUMPF":
            if not stack.pop():
                pc = labels[arg]
                continue
        elif op == "LABEL":
            pass
        elif op == "RET":
            count, _kind = arg
            return stack.pop() if count else None
        else:
            raise ReachRuntimeError(f"op {op} is not pure; views cannot use it")
        pc += 1
    return None


def _binop(op: str, left: Any, right: Any) -> Any:
    if op == "EQ":
        return 1 if left == right else 0
    table = {
        "ADD": lambda: left + right,
        "SUB": lambda: left - right,
        "MUL": lambda: left * right,
        "DIV": lambda: left // right if right else 0,
        "MOD": lambda: left % right if right else 0,
        "LT": lambda: 1 if left < right else 0,
        "GT": lambda: 1 if left > right else 0,
        "LE": lambda: 1 if left <= right else 0,
        "GE": lambda: 1 if left >= right else 0,
        "AND": lambda: 1 if (left and right) else 0,
        "OR": lambda: 1 if (left or right) else 0,
    }
    return table[op]()
