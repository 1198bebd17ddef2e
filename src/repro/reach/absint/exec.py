"""One lockstep executor for both emitted artifacts, on the two real VMs.

The differential layers do not interpret the IR abstractly -- they run
the *emitted artifacts* on the same EVM and AVM implementations
production traffic uses, so a finding about them is a finding about the
code that ships.  Each model wraps one backend behind a tiny interface:
:meth:`~BackendModel.step` applies one :class:`ActionTemplate` to a
state and reports accept/reject plus the successor, the transfers, and
the raw logs and return value.

:class:`Lockstep` drives both models at once, and it is the only way
either analysis runs an artifact: the protocol model checker
(:mod:`repro.reach.absint.modelcheck`) steps every explored (state,
action) pair through it, and the per-vector equivalence check
(:mod:`repro.reach.absint.equiv`) steps each vector through it as a
depth-1 root.  A step first compares the two outcomes cheaply: status,
transfers, canonical events and return value, and the successor's
canonical digest (:mod:`repro.reach.absint.encode` gives the same
protocol state the same digest on both backends).  Only when that
comparison fails does it canonicalise both outcomes in full and name
every difference: that message list is the divergence.

States are immutable snapshots (:class:`MCState`); each call gets fresh
VM stores built from the snapshot, so a caller can fan a state out over
every enabled action.  A checking run steps about ten thousand (state,
action) pairs per backend, but most of them repeat a VM call already
made: a call sees only its action, the clock, the balance and the few
store values it reads, and those recur across states that differ
elsewhere.  Each model therefore keeps an exact read-footprint memo
(:class:`BackendModel`) and runs its VM once per footprint -- 913 of
the 10,091 steps per backend of the 4-seat PoL sweep.  The rest is
built once too: the caller assembles the TEAL artifact once (both VMs
then cache their decoded program on the artifact), every storage key,
box name and digest prefix comes precomputed from the model's
:class:`~repro.reach.absint.encode.StateLayout`, and a state's digest
is computed once.  The memo lives on the models of one sweep; the
reports the analyses cache hold none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from repro.chain.algorand.avm import AVM, MAX_BUDGET_POOL, Application, AvmError, AvmPanic, CallContext
from repro.chain.algorand.teal import TealProgram, TealSyntaxError, assemble
from repro.chain.ethereum.evm import EVM, EvmCode, EvmContract, VMError, VMRevert
from repro.reach.absint.encode import StateLayout, canon, is_absent, scalar_names, uint_of
from repro.reach.compiler import CompiledContract

#: the deploying participant
CREATOR = "0x" + "ca" * 20
#: the untrusted everyone-else caller; per-caller state is never keyed
#: by address in this DSL, so one adversarial address is symmetric with
#: any number of them (caller-symmetry reduction)
OTHER = "0x" + "0b" * 20
#: consensus time at deploy
GENESIS_NOW = 1_000

_APP_ADDRESS = "0x" + "aa" * 20
_GAS_LIMIT = 1_000_000_000


@dataclass(frozen=True)
class ActionTemplate:
    """One concrete move: an entry-point call or the clock advance."""

    name: str  # display form, e.g. "attacherAPI.insert_data(data,did=1)"
    fn: str  # IR function name ("" for the clock, "constructor" to create)
    caller: str
    args: tuple[Any, ...]
    value: int
    phase: int | None  # enabling value of ``_phase`` (None: any live phase)
    kind: str  # "publish" | "api" | "timeout" | "clock" | "deploy"


#: the application-create call, made once from the empty state
DEPLOY = ActionTemplate(name="deploy", fn="constructor", caller=CREATOR, args=(), value=0, phase=None, kind="deploy")


class MCState(NamedTuple):
    """One immutable protocol state, in backend-native representation.

    ``scalars`` holds every runtime global in layout order (none before
    deploy); ``maps`` holds only *present* entries, in layout order.
    ``balance`` and ``now`` live outside the VM stores: the VMs treat
    both as per-call inputs, so the caller owns them.  (A named tuple
    rather than a frozen dataclass: a checking run builds tens of
    thousands.)
    """

    scalars: tuple[tuple[str, object], ...]
    maps: tuple[tuple[tuple[int, int], object], ...]
    balance: int
    now: int

    def scalar(self, name: str) -> object:
        for key, value in self.scalars:
            if key == name:
                return value
        return 0

    def phase(self) -> int:
        return uint_of(self.scalar("_phase"))

    def deadline(self) -> int:
        return uint_of(self.scalar("_deadline"))

    def map_value(self, slot: int, key: int) -> object | None:
        for entry_key, value in self.maps:
            if entry_key == (slot, key):
                return value
        return None

    def with_clock(self, now: int) -> "MCState":
        return MCState(self.scalars, self.maps, self.balance, now)


#: the empty store the constructor runs against
GENESIS = MCState(scalars=(), maps=(), balance=0, now=GENESIS_NOW)


class StepResult(NamedTuple):
    """Observable outcome of applying one action to one state."""

    status: str  # "ok" | "rejected" | "machine-error"
    state: MCState  # the successor (== the input state unless "ok")
    transfers: tuple[tuple[str, int], ...] = ()
    error: str = ""
    logs: tuple[Any, ...] = ()  # the VM's raw logs: (event, payload) pairs on the EVM, bytes on the AVM
    ret: Any = None  # the VM's raw return value

    @property
    def paid_out(self) -> int:
        return sum(amount for _to, amount in self.transfers)


#: a store read that found no entry (unequal to every stored value)
_ABSENT = object()


#: a call's reads: ``(store index, key) -> value or _ABSENT``, in first-read order
_ReadLog = dict[tuple[int, bytes], Any]


class _Recording(dict[bytes, Any]):
    """A copy of one VM store that logs each key's first read into the
    call's read log.

    The VMs read their stores only through ``get``, ``in`` and ``[]``;
    each is a function of ``dict.get(key, _ABSENT)``, so replaying that
    one lookup per logged key reproduces what the VM saw.  A repeated
    read adds nothing: the VMs buffer their writes, so a store does not
    change during a call.
    """

    __slots__ = ("index", "log")

    def __init__(self, data: Mapping[bytes, Any], index: int, log: _ReadLog) -> None:
        super().__init__(data)
        self.index = index
        self.log = log

    def _read(self, key: Any) -> Any:
        value = dict.get(self, key, _ABSENT)
        self.log.setdefault((self.index, key), value)
        return value

    def get(self, key: bytes, default: Any = None) -> Any:
        value = self._read(key)
        return default if value is _ABSENT else value

    def __contains__(self, key: object) -> bool:
        return self._read(key) is not _ABSENT

    def __getitem__(self, key: bytes) -> Any:
        value = self._read(key)
        if value is _ABSENT:
            raise KeyError(key)
        return value


#: one store's (writes, deletes) of a call, as (key, value) pairs and keys
_StoreEffects = tuple[tuple[tuple[bytes, Any], ...], tuple[bytes, ...]]


class _Outcome(NamedTuple):
    """What one VM call did, independent of the stores it ran on."""

    status: str  # "ok" | "rejected" | "machine-error"
    error: str = ""
    effects: tuple[_StoreEffects, ...] = ()  # per store, in store order
    transfers: tuple[tuple[str, int], ...] = ()
    logs: tuple[Any, ...] = ()
    ret: Any = None


class _Read:
    """A memo trie node: the store read a call makes next.  Hashed by
    identity, so ``(node, value found)`` names the edge it leads along."""

    __slots__ = ("store", "key")

    def __init__(self, store: int, key: bytes) -> None:
        self.store = store
        self.key = key


class BackendModel:
    """Shared state plumbing and the read-footprint memo; subclasses
    supply the stores and the VM call.

    The memo is exact.  A call's inputs are the action template, the
    clock, the balance and what it reads from the stores; everything
    else the VM sees (code, gas limit, block number, round, addresses,
    budget pool) is constant.  The VMs are deterministic, so which key a
    call reads next depends only on those first three and the values it
    has read so far.  Keyed by ``(template, now, balance)``, a trie of
    read sequences therefore names the outcome of any state whose stores
    hold the same values along one of its paths, without running the VM.
    (Stored values are ints, bytes and strs, so equal values are
    interchangeable.)

    The trie is one dict from a position -- the prefix, or ``(read node,
    value found)`` -- to what comes next: a read node or an outcome.
    Equal outcomes are stored once: a sweep has about a hundred distinct
    ones per backend among a thousand leaves.
    """

    def __init__(self, layout: StateLayout, cell_keys: tuple[bytes, ...]):
        self.layout = layout
        self.cell_keys = cell_keys  # the backend's keys for ``layout.entries``, in order
        self._memo: dict[tuple[Any, ...], _Read | _Outcome] = {}
        self._outcomes: dict[_Outcome, _Outcome] = {}

    # -- subclass surface ----------------------------------------------------

    def _stores(self, state: MCState) -> tuple[dict[bytes, Any], ...]:
        """Fresh VM stores holding ``state``: scalars first, Map cells last."""
        raise NotImplementedError

    def _run(self, state: MCState, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...]) -> _Outcome:
        """Run the VM on ``stores`` (without changing them)."""
        raise NotImplementedError

    # -- common --------------------------------------------------------------

    def step(self, state: MCState, template: ActionTemplate) -> StepResult:
        if template.kind == "clock":
            deadline = state.deadline()
            if state.now > deadline:
                return StepResult(status="rejected", state=state, error="clock already past deadline")
            return StepResult(status="ok", state=state.with_clock(deadline + 1))
        return self._execute(state, template)

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        stores = self._stores(state)
        outcome = self._recall(state, template, stores)
        if outcome.status != "ok":
            return StepResult(status=outcome.status, state=state, error=outcome.error)
        for store, (writes, deletes) in zip(stores, outcome.effects):
            store.update(writes)
            for dead in deletes:
                store.pop(dead, None)
        return self._accepted(state, template, stores[0], stores[-1], outcome)

    @staticmethod
    def _prefix(state: MCState, template: ActionTemplate) -> tuple[ActionTemplate, int, int]:
        """The memo key: every VM input that is not a store read."""
        return (template, state.now, state.balance)

    def _recall(self, state: MCState, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...]) -> _Outcome:
        """The call's outcome: from the memo when the stores hold what an
        earlier call with the same prefix read, else from a recorded run."""
        prefix = self._prefix(state, template)
        memo = self._memo
        node = memo.get(prefix)
        try:
            while isinstance(node, _Read):
                node = memo.get((node, stores[node.store].get(node.key, _ABSENT)))
        except TypeError:  # an unhashable stored value: run without the memo
            return self._run(state, template, stores)
        if node is not None:
            return node
        log: _ReadLog = {}
        outcome = self._run(state, template, tuple(_Recording(store, index, log) for index, store in enumerate(stores)))
        self._remember(prefix, log, outcome)
        return outcome

    def _remember(self, prefix: tuple[ActionTemplate, int, int], log: _ReadLog, outcome: _Outcome) -> None:
        """Insert one run's read sequence, ending at its outcome."""
        try:
            hash(tuple(log.values()))
            outcome = self._outcomes.setdefault(outcome, outcome)
        except TypeError:
            return  # an unhashable value cannot key the trie
        memo = self._memo
        slot: tuple[Any, ...] = prefix
        for (store, key), value in log.items():
            node = memo.get(slot)
            if node is None:
                node = memo[slot] = _Read(store, key)
            elif not isinstance(node, _Read) or (node.store, node.key) != (store, key):
                raise RuntimeError(f"the read memo key misses an input of {prefix[0].name}")
            slot = (node, value)
        memo[slot] = outcome

    def _globals_of(self, state: MCState) -> dict[bytes, object]:
        """The state's scalars keyed as both VMs store them."""
        key_of = self.layout.global_key_of
        return {key_of[name]: value for name, value in state.scalars}

    def _accepted(
        self,
        state: MCState,
        template: ActionTemplate,
        globals_: Mapping[bytes, object],
        cells: Mapping[bytes, object],
        outcome: _Outcome,
    ) -> StepResult:
        """The accepted call's result, its successor read back out of the
        VM's post-call stores (absent, zero and empty cells are not part
        of the state)."""
        layout = self.layout
        scalars = tuple([(name, globals_.get(key, 0)) for name, key in zip(layout.names, layout.global_keys)])
        maps = []
        for entry, key in zip(layout.entries, self.cell_keys):
            value = cells.get(key)
            if value is not None and not is_absent(value):
                maps.append((entry, value))
        transfers = outcome.transfers
        paid = sum(amount for _to, amount in transfers)
        successor = MCState(
            scalars=scalars,
            maps=tuple(maps),
            balance=state.balance + template.value - paid,
            now=state.now,
        )
        return StepResult(status="ok", state=successor, transfers=transfers, logs=outcome.logs, ret=outcome.ret)


class EvmModel(BackendModel):
    """The Ethereum side: emitted EVM code on the gas-metered VM."""

    def __init__(self, code: EvmCode, layout: StateLayout):
        super().__init__(layout, layout.evm_keys)
        self.code = code
        self.vm = EVM()

    def _stores(self, state: MCState) -> tuple[dict[bytes, Any], ...]:
        storage = self._globals_of(state)
        evm_key_of = self.layout.evm_key_of
        for entry, value in state.maps:
            storage[evm_key_of[entry]] = value
        return (storage,)

    def _run(self, state: MCState, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...]) -> _Outcome:
        contract = EvmContract(address=_APP_ADDRESS, code=self.code, storage=stores[0], creator=CREATOR)
        creating = template.fn == "constructor"
        try:
            result = self.vm.execute(
                contract,
                entry=self.code.init_entry if creating else self.code.methods[template.fn],
                args=list(template.args),
                caller=template.caller,
                value=template.value,
                gas_limit=_GAS_LIMIT,
                block_number=1,
                timestamp=float(state.now),
                self_balance=state.balance,
                intrinsic=0,
            )
        except VMRevert as revert:
            return _Outcome("rejected", str(revert))
        except VMError as error:
            return _Outcome("machine-error", str(error))
        return _Outcome(
            "ok",
            effects=((tuple(result.storage_writes.items()), ()),),
            transfers=tuple(result.transfers),
            logs=tuple(result.logs),
            ret=result.return_value,
        )


class AvmModel(BackendModel):
    """The Algorand side: assembled TEAL on the budget-metered AVM.

    An artifact that does not assemble is a machine error on every
    call, so it shows up as a divergence rather than a crash.
    """

    def __init__(self, program: TealProgram | TealSyntaxError, layout: StateLayout):
        super().__init__(layout, layout.box_keys)
        self.program = program
        self.vm = AVM()

    def _stores(self, state: MCState) -> tuple[dict[bytes, Any], ...]:
        box_key_of = self.layout.box_key_of
        boxes: dict[bytes, Any] = {box_key_of[entry]: value for entry, value in state.maps}
        return (self._globals_of(state), boxes)

    def _run(self, state: MCState, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...]) -> _Outcome:
        if isinstance(self.program, TealSyntaxError):
            return _Outcome("machine-error", str(self.program))
        global_state, boxes = stores
        app_id = 0 if template.fn == "constructor" else 1
        app = Application(
            app_id=app_id,
            approval=self.program,
            creator=CREATOR,
            address=_APP_ADDRESS,
            global_state=global_state,
            boxes=boxes,
        )
        ctx = CallContext(
            sender=template.caller,
            application_id=app_id,
            app_args=[template.fn, *template.args] if app_id else [],
            amount=template.value,
            round=1,
            timestamp=float(state.now),
            app_address=_APP_ADDRESS,
            app_balance=state.balance,
            budget_pool=MAX_BUDGET_POOL,
        )
        try:
            result = self.vm.execute(app, ctx)
        except AvmPanic as panic:
            return _Outcome("rejected", str(panic))
        except AvmError as error:
            return _Outcome("machine-error", str(error))
        return _Outcome(
            "ok",
            effects=(
                (tuple(result.global_writes.items()), tuple(result.global_deletes)),
                (tuple(result.box_writes.items()), tuple(result.box_deletes)),
            ),
            transfers=tuple(result.inner_payments),
            logs=tuple(result.logs),
            ret=result.return_value,
        )


def assemble_teal(source: str) -> TealProgram | TealSyntaxError:
    """The assembled TEAL artifact, or the error every AVM call then reports."""
    try:
        return assemble(source)
    except TealSyntaxError as error:
        return error


# -- comparing the two outcomes ------------------------------------------------


def _parse_avm_logs(logs: tuple[bytes, ...]) -> tuple[tuple[Any, ...], bytes | None]:
    """Split app logs into decoded events and the trailing return log."""
    events = []
    ret_log = None
    index = 0
    while index < len(logs):
        entry = logs[index]
        if entry.startswith(b"evt:"):
            name, _, argc_text = entry[4:].decode().rpartition("/")
            argc = int(argc_text)
            # The TEAL lowering logs values top-of-stack first, i.e. in
            # reverse source order.
            payload = tuple(reversed(logs[index + 1 : index + 1 + argc]))
            events.append((name, payload))
            index += 1 + argc
        else:
            ret_log = entry
            index += 1
    return tuple(events), ret_log


def _events_and_ret(backend: str, result: StepResult, ret_kind: str | None) -> tuple[tuple[Any, ...], bytes | None]:
    """An accepted call's events and return value, canonically encoded."""
    if backend == "evm":
        events = tuple([(event, tuple(map(canon, payload))) for event, payload in result.logs])
        ret = result.ret
    else:
        events, ret = _parse_avm_logs(result.logs)
        if ret is not None and ret_kind == "uint":
            ret = int.from_bytes(ret, "big")
    return events, None if ret_kind is None or ret is None else canon(ret)


def _observables(backend: str, result: StepResult, layout: StateLayout, ret_kind: str | None) -> list[tuple[str, Any]]:
    """Every observable effect of an accepted call, canonically encoded
    and labelled the way a divergence message names it."""
    present = {entry: canon(value) for entry, value in result.state.maps}
    events, ret = _events_and_ret(backend, result, ret_kind)
    return [
        *((f"global {name!r} differs", canon(value)) for name, value in result.state.scalars),
        *((f"map entry {entry} differs", present.get(entry)) for entry in layout.entries),
        ("transfers differ", result.transfers),
        ("events differ", events),
        ("return value differs", ret),
    ]


def _diff(where: str, evm: StepResult, avm: StepResult, layout: StateLayout, ret_kind: str | None) -> list[str]:
    """Name every observable difference between the two outcomes."""
    evm_status, avm_status = (
        f"machine-error: {result.error}" if result.status == "machine-error" else result.status for result in (evm, avm)
    )
    if evm_status != avm_status:
        return [f"{where}: EVM {evm_status} but AVM {avm_status}"]
    if evm.status != "ok":
        return []
    return [
        f"{where}: {what} (EVM {mine!r}, AVM {theirs!r})"
        for (what, mine), (_, theirs) in zip(
            _observables("evm", evm, layout, ret_kind), _observables("avm", avm, layout, ret_kind)
        )
        if mine != theirs
    ]


# -- the lockstep step ---------------------------------------------------------


class Pair(NamedTuple):
    """One protocol state as each backend stores it (equal digests)."""

    evm: MCState
    avm: MCState


class LockstepResult(NamedTuple):
    """Both backends' outcomes of one action, and whether they agree."""

    evm: StepResult
    avm: StepResult
    digest: bytes | None  # the successor's digest when both accepted
    divergence: tuple[str, ...]  # every observable difference; empty when they agree

    @property
    def pair(self) -> Pair:
        return Pair(self.evm.state, self.avm.state)


class Lockstep:
    """Both backend models of one contract over one shared layout."""

    def __init__(self, compiled: CompiledContract, program: TealProgram | TealSyntaxError, layout: StateLayout):
        self.evm = EvmModel(compiled.evm_code, layout)
        self.avm = AvmModel(program, layout)
        self.layout = layout
        self.ret_kinds = {name: function.ret_kind for name, function in compiled.ir.functions.items()}
        # Digests by state value: most steps land on a state already
        # seen, and a lookup is far cheaper than re-encoding.  Equal
        # states encode equally (the VM stores hold only ints, bytes and
        # strs), and one layout serves both backends.
        self._digests: dict[MCState, bytes] = {}
        # Canonical events and return values by raw logs: a few dozen
        # distinct ones recur across thousands of steps.
        self._canonical: dict[tuple[Any, ...], tuple[tuple[Any, ...], bytes | None]] = {}

    def digest(self, state: MCState) -> bytes:
        digest = self._digests.get(state)
        if digest is None:
            digest = self.layout.digest(state.scalars, state.maps, state.balance, state.now)
            self._digests[state] = digest
        return digest

    def _canonical_logs(
        self, backend: str, result: StepResult, ret_kind: str | None
    ) -> tuple[tuple[Any, ...], bytes | None]:
        """:func:`_events_and_ret`, memoized per raw logs and return value."""
        key = (backend, result.logs, result.ret, ret_kind)
        canonical = self._canonical.get(key)
        if canonical is None:
            canonical = self._canonical[key] = _events_and_ret(backend, result, ret_kind)
        return canonical

    def deploy(self) -> LockstepResult:
        return self.step(Pair(GENESIS, GENESIS), DEPLOY)

    def step(self, pair: Pair, template: ActionTemplate) -> LockstepResult:
        """Apply ``template`` on both backends and compare what they did."""
        return self.step_all(pair, (template,))[0]

    def step_all(self, pair: Pair, templates: Sequence[ActionTemplate]) -> list[LockstepResult]:
        """:meth:`step` for each template from one state.

        Each VM runs all its calls before the other starts, which keeps
        one interpreter's working set hot: the PoL sweep measured a few
        percent faster than with the two VMs stepping turn about.
        """
        evms = [self.evm.step(pair.evm, template) for template in templates]
        avms = [self.avm.step(pair.avm, template) for template in templates]
        return [self._compare(template, evm, avm) for template, evm, avm in zip(templates, evms, avms)]

    def _compare(self, template: ActionTemplate, evm: StepResult, avm: StepResult) -> LockstepResult:
        """The cheap agreement check; the full difference list only when it fails."""
        ret_kind = self.ret_kinds.get(template.fn)
        digest = None
        if evm.status == "ok" == avm.status:
            digest = self.digest(evm.state)
            if (
                evm.transfers == avm.transfers
                and digest == self.digest(avm.state)
                and self._canonical_logs("evm", evm, ret_kind) == self._canonical_logs("avm", avm, ret_kind)
            ):
                return LockstepResult(evm, avm, digest, ())
        elif evm.status == "rejected" == avm.status:
            return LockstepResult(evm, avm, None, ())
        return LockstepResult(evm, avm, digest, tuple(_diff(template.name, evm, avm, self.layout, ret_kind)))


def make_lockstep(compiled: CompiledContract, keys: tuple[int, ...]) -> Lockstep:
    """Both backend models of one compiled contract, tracking every Map
    slot at each of ``keys``; the TEAL artifact is assembled here."""
    ir = compiled.ir
    layout = StateLayout(
        sorted(scalar_names(ir)),
        [(slot, key) for slot in sorted(ir.map_slots.values()) for key in keys],
    )
    return Lockstep(compiled, assemble_teal(compiled.teal_source), layout)
