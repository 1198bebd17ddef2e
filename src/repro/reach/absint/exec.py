"""One lockstep executor for both emitted artifacts, on the two real VMs.

The differential layers do not interpret the IR abstractly -- they run
the *emitted artifacts* on the same EVM and AVM implementations
production traffic uses, so a finding about them is a finding about the
code that ships.  Each model wraps one backend: :meth:`~BackendModel.outcomes`
gives each :class:`ActionTemplate`'s outcome from one state -- accept or
reject, the edits to the state's cells, the transfers, and the raw logs
and return value -- and :meth:`~BackendModel.result` turns one into the
step's result and successor.

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

States are immutable snapshots (:class:`MCState`): one flat tuple of
cells over a :class:`~repro.reach.absint.encode.StateLayout`, plus the
balance and the clock.  A checking run steps about ten thousand (state,
action) pairs per backend, but most of them repeat a VM call already
made: a call sees only its action and the few cells it reads -- the
balance and the clock among them only when it uses them -- and those
recur across states that differ elsewhere.  Each model therefore keeps
an exact read-footprint memo (:class:`BackendModel`) and runs its VM
once per footprint: 248 of the 10,251 steps per backend of the 4-seat
PoL sweep.  A memoized outcome holds its effects as cell edits, so a
successor is a copy of its state's cells with a few replaced; a pair of
outcomes is compared once (:meth:`Lockstep._agree`); and VM stores are
built only for a state that misses the memo, once for all its calls.
The rest is built once too: the caller assembles the TEAL artifact once
(both VMs then cache their decoded program on the artifact), every
storage key, box name and digest prefix comes precomputed from the
layout, and a state's digest is computed once.  The memo lives on the
models of one sweep; the reports the analyses cache hold none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from repro.chain.algorand.avm import AVM, MAX_BUDGET_POOL, Application, AvmError, AvmPanic, CallContext
from repro.chain.algorand.teal import TealProgram, TealSyntaxError, assemble
from repro.chain.ethereum.evm import EVM, EvmCode, EvmContract, VMError, VMRevert
from repro.reach.absint.encode import UNSET, StateLayout, canon, is_absent, scalar_names, uint_of
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

    ``cells`` holds the layout's scalar globals, then its tracked Map
    cells, each as its backend stores it, and ``UNSET`` where the store
    holds no entry: every global before deploy, and an absent Map entry
    (a set Map cell is never zero or empty).  ``balance`` and ``now``
    live outside the VM stores: the VMs treat both as per-call inputs,
    so the caller owns them.  (A named tuple of one flat tuple of cells
    rather than a frozen dataclass: a checking run builds tens of
    thousands, and hashes each one whose digest it looks up.)
    """

    cells: tuple[Any, ...]
    balance: int
    now: int
    layout: StateLayout

    @classmethod
    def of(
        cls,
        layout: StateLayout,
        scalars: Mapping[str, Any],
        maps: Mapping[tuple[int, int], Any],
        balance: int,
        now: int,
    ) -> "MCState":
        """The state whose set cells are ``scalars`` and ``maps``."""
        cells = [scalars.get(name, UNSET) for name in layout.names]
        cells += [maps.get(entry, UNSET) for entry in layout.entries]
        return cls(tuple(cells), balance, now, layout)

    def map_cells(self) -> Iterator[tuple[tuple[int, int], Any]]:
        """Each tracked Map cell as ``((slot, key), value or UNSET)``, in layout order."""
        return zip(self.layout.entries, self.cells[len(self.layout.names) :])

    def phase(self) -> int:
        value = self.cells[self.layout.scalar_cell["_phase"]]
        return 0 if value is UNSET else uint_of(value)

    def deadline(self) -> int:
        value = self.cells[self.layout.scalar_cell["_deadline"]]
        return 0 if value is UNSET else uint_of(value)

    def map_value(self, slot: int, key: int) -> object | None:
        cell = self.layout.entry_cell.get((slot, key))
        value: object = UNSET if cell is None else self.cells[cell]
        return None if value is UNSET else value

    def with_clock(self, now: int) -> "MCState":
        return MCState(self.cells, self.balance, now, self.layout)


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


#: a call's reads: ``cell index -> value or UNSET``, in first-read order
_ReadLog = dict[int, Any]


class _Recording(dict[bytes, Any]):
    """One VM store of a state that logs each cell's first read into the
    current call's read log.

    The VMs read their stores only through ``get``, ``in`` and ``[]``;
    each is a function of ``dict.get(key, UNSET)``, so replaying that
    one lookup per logged cell reproduces what the VM saw.  A repeated
    read adds nothing: the VMs buffer their writes, so a store does not
    change during a call, and one state's stores serve all its calls.
    A key outside the layout is never stored, so reading it tells the
    call nothing and is not logged.
    """

    __slots__ = ("cell_of", "log")

    def __init__(self, data: Mapping[bytes, Any], cell_of: Mapping[bytes, int]) -> None:
        super().__init__(data)
        self.cell_of = cell_of
        self.log: _ReadLog = {}

    def _read(self, key: Any) -> Any:
        value = dict.get(self, key, UNSET)
        cell = self.cell_of.get(key)
        if cell is not None:
            self.log.setdefault(cell, value)
        return value

    def get(self, key: bytes, default: Any = None) -> Any:
        value = self._read(key)
        return default if value is UNSET else value

    def __contains__(self, key: object) -> bool:
        return self._read(key) is not UNSET

    def __getitem__(self, key: bytes) -> Any:
        value = self._read(key)
        if value is UNSET:
            raise KeyError(key)
        return value


class _Input:
    """The balance or the clock as a recorded call sees it: logged as a
    read of its cell when the VM first uses it.

    Both VMs read the clock only as ``int(timestamp)`` (EVM
    ``TIMESTAMP``, AVM ``global LatestTimestamp``) and the balance only
    as ``balance + value`` (EVM ``SELFBALANCE`` and the ``TRANSFER``
    check, AVM ``balance`` and the inner-payment check), so those are
    the only two operations defined: any other use fails loudly instead
    of going unlogged.  The chains' own calls pass plain numbers and
    never meet this class.
    """

    __slots__ = ("value", "cell", "log")

    def __init__(self, value: int, cell: int, log: _ReadLog) -> None:
        self.value = value
        self.cell = cell
        self.log = log

    def __int__(self) -> int:
        self.log.setdefault(self.cell, self.value)
        return self.value

    def __add__(self, other: int) -> int:
        self.log.setdefault(self.cell, self.value)
        return self.value + other


#: one store's (writes, deletes) of a call, as (key, value) pairs and keys
_StoreEffects = tuple[tuple[tuple[bytes, Any], ...], tuple[bytes, ...]]


class _Outcome(NamedTuple):
    """What one VM call did, its effects as cell edits: independent of
    the state it ran on beyond the cells it read."""

    status: str  # "ok" | "rejected" | "machine-error"
    error: str = ""
    edits: tuple[tuple[int, Any], ...] = ()  # (cell, new value or UNSET), by cell
    transfers: tuple[tuple[str, int], ...] = ()
    paid: int = 0  # the transfers' sum
    logs: tuple[Any, ...] = ()
    ret: Any = None


class _Read:
    """A memo trie node: the cell a call reads next, and where each
    value found there leads (another read, or the outcome)."""

    __slots__ = ("cell", "next")

    def __init__(self, cell: int) -> None:
        self.cell = cell
        self.next: dict[Any, _Read | _Outcome] = {}


class BackendModel:
    """Shared state plumbing and the read-footprint memo; subclasses
    supply the VM call.

    The memo is exact.  A call's inputs are the action template and the
    cells it reads, counting the balance and the clock as two more cells
    read only when the call uses them (:class:`_Input`): most calls
    reject, or finish, without either.  Everything else the VM sees
    (code, gas limit, block number, round, addresses, budget pool) is
    constant.  The VMs are deterministic, so which cell a call reads
    next depends only on the template and the values it has read so
    far.  Keyed by template, a trie of read sequences therefore names
    the outcome of any state whose cells hold the same values along one
    of its paths, without running the VM.  (Stored values are ints,
    bytes and strs, so equal values are interchangeable.)  Equal
    outcomes are stored once.

    An outcome holds its effects as cell edits, so a successor is its
    state's cells with those replaced: no store is built, copied or read
    back for a call the memo answers, and a state's stores are built
    once, on its first miss, for all its calls.
    """

    def __init__(self, layout: StateLayout, store_keys: tuple[tuple[bytes, ...], ...]):
        self.layout = layout
        #: each VM store's keys; laid end to end they are the cells' keys
        self.store_keys = store_keys
        self.cell_of: list[dict[bytes, int]] = []  # per store, the cell of each key
        first = 0
        for keys in store_keys:
            self.cell_of.append({key: cell for cell, key in enumerate(keys, first)})
            first += len(keys)
        self.balance_cell = first
        self.clock_cell = first + 1
        # Roots by template identity: a frozen dataclass hashes all its
        # fields on every lookup.  ``_templates`` keeps each keyed
        # template alive, so its id names no other object meanwhile.
        self._roots: dict[int, _Read | _Outcome] = {}
        self._templates: list[ActionTemplate] = []
        self._outcomes: dict[_Outcome, _Outcome] = {}
        self._stored: tuple[MCState | None, tuple[_Recording, ...]] = (None, ())

    def _run(
        self, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...], clock: Any, balance: Any
    ) -> _Outcome:
        """Run the VM on ``stores`` (without changing them); ``clock`` and
        ``balance`` are plain numbers or :class:`_Input` cells."""
        raise NotImplementedError

    def outcomes(self, state: MCState, templates: Sequence[ActionTemplate]) -> list[_Outcome | None]:
        """Each template's outcome from ``state`` (None for the clock
        advance, which no VM runs)."""
        cells = state.cells + (state.balance, state.now)
        outcome = self._outcome
        return [None if template.kind == "clock" else outcome(state, template, cells) for template in templates]

    @staticmethod
    def tick(state: MCState) -> StepResult:
        """The clock advance: past the deadline, unless it already is."""
        deadline = state.deadline()
        if state.now > deadline:
            return StepResult("rejected", state, error="clock already past deadline")
        return StepResult("ok", state.with_clock(deadline + 1))

    @staticmethod
    def base(state: MCState) -> tuple[Any, ...]:
        """The cells a successor of ``state`` starts from: its own, with
        every unset global read back as 0."""
        cells = state.cells
        globals_ = cells[: len(state.layout.names)]
        if UNSET in globals_:
            return tuple([0 if value is UNSET else value for value in globals_]) + cells[len(globals_) :]
        return cells

    @staticmethod
    def result(state: MCState, template: ActionTemplate, base: tuple[Any, ...], outcome: _Outcome) -> StepResult:
        """The step of ``template`` from ``state`` that ended in
        ``outcome``; an accepted one's successor is ``base`` (see
        :meth:`base`) with the outcome's cells replaced."""
        step: StepResult
        if outcome.status != "ok":
            step = _new(StepResult, (outcome.status, state, (), outcome.error, (), None))
            return step
        cells = base
        if outcome.edits:
            patched = list(base)
            for cell, value in outcome.edits:
                patched[cell] = value
            cells = tuple(patched)
        balance = state.balance + template.value - outcome.paid
        successor: MCState = _new(MCState, (cells, balance, state.now, state.layout))
        step = _new(StepResult, ("ok", successor, outcome.transfers, "", outcome.logs, outcome.ret))
        return step

    def _stores(self, state: MCState) -> tuple[dict[bytes, Any], ...]:
        """Fresh VM stores holding ``state``'s set cells."""
        stores = []
        first = 0
        for keys in self.store_keys:
            cells = state.cells[first : first + len(keys)]
            stores.append({key: value for key, value in zip(keys, cells) if value is not UNSET})
            first += len(keys)
        return tuple(stores)

    def _outcome(self, state: MCState, template: ActionTemplate, cells: Sequence[Any]) -> _Outcome:
        """The call's outcome: from the memo when ``cells`` (the state's,
        then its balance and clock) hold what an earlier call of
        ``template`` read, else from a recorded run."""
        node = self._roots.get(id(template))
        try:
            while isinstance(node, _Read):
                node = node.next.get(cells[node.cell])
        except TypeError:  # an unhashable stored value: run, and do not remember
            node = None
        if node is None:
            return self._record(state, template)
        return node

    def _record(self, state: MCState, template: ActionTemplate) -> _Outcome:
        """Run the VM on ``state``'s stores, logging the cells it reads,
        and remember the outcome under that read sequence."""
        if self._stored[0] is not state:
            stores = tuple(_Recording(store, cell_of) for store, cell_of in zip(self._stores(state), self.cell_of))
            self._stored = (state, stores)
        stores = self._stored[1]
        log: _ReadLog = {}
        for store in stores:
            store.log = log
        clock, balance = self._inputs(state, log)
        outcome = self._run(template, stores, clock, balance)
        self._remember(template, log, outcome)
        return outcome

    def _inputs(self, state: MCState, log: _ReadLog) -> tuple[_Input, _Input]:
        """The clock and the balance of a recorded call, each logged when read."""
        return _Input(state.now, self.clock_cell, log), _Input(state.balance, self.balance_cell, log)

    def _remember(self, template: ActionTemplate, log: _ReadLog, outcome: _Outcome) -> None:
        """Insert one run's read sequence, ending at its outcome."""
        try:
            hash(tuple(log.values()))
            outcome = self._outcomes.setdefault(outcome, outcome)
        except TypeError:
            return  # an unhashable value cannot key the trie
        slots: dict[Any, _Read | _Outcome] = self._roots
        slot: Any = id(template)
        if slot not in slots:
            self._templates.append(template)
        for cell, value in log.items():
            node = slots.get(slot)
            if node is None:
                node = slots[slot] = _Read(cell)
            elif not isinstance(node, _Read) or node.cell != cell:
                raise RuntimeError(f"the read memo misses an input of {template.name}")
            slots, slot = node.next, value
        slots[slot] = outcome

    def _accepted_outcome(
        self, effects: Sequence[_StoreEffects], transfers: tuple[tuple[str, int], ...], logs: tuple[Any, ...], ret: Any
    ) -> _Outcome:
        """An accepted call's outcome: each store's writes, then its
        deletes, as cell edits (keys outside the layout are not state).
        A deleted global reads back as 0; a zero or empty Map value is
        the EVM's encoding of an absent entry."""
        scalars = len(self.layout.names)
        edits: dict[int, Any] = {}
        for cell_of, (writes, deletes) in zip(self.cell_of, effects):
            for key, value in writes:
                cell = cell_of.get(key)
                if cell is not None:
                    edits[cell] = value if cell < scalars or not is_absent(value) else UNSET
            for key in deletes:
                cell = cell_of.get(key)
                if cell is not None:
                    edits[cell] = 0 if cell < scalars else UNSET
        paid = sum(amount for _to, amount in transfers)
        return _Outcome("ok", "", tuple(sorted(edits.items())), transfers, paid, logs, ret)


#: ``_new(cls, fields)``: a named tuple from all its fields, without the
#: Python-level ``__new__`` frame the class's constructor runs
_new: Any = tuple.__new__


class EvmModel(BackendModel):
    """The Ethereum side: emitted EVM code on the gas-metered VM."""

    def __init__(self, code: EvmCode, layout: StateLayout):
        super().__init__(layout, (layout.global_keys + layout.evm_keys,))
        self.code = code
        self.vm = EVM()

    def _run(
        self, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...], clock: Any, balance: Any
    ) -> _Outcome:
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
                timestamp=clock,
                self_balance=balance,
                intrinsic=0,
            )
        except VMRevert as revert:
            return _Outcome("rejected", str(revert))
        except VMError as error:
            return _Outcome("machine-error", str(error))
        return self._accepted_outcome(
            ((tuple(result.storage_writes.items()), ()),),
            tuple(result.transfers),
            tuple(result.logs),
            result.return_value,
        )


class AvmModel(BackendModel):
    """The Algorand side: assembled TEAL on the budget-metered AVM.

    An artifact that does not assemble is a machine error on every
    call, so it shows up as a divergence rather than a crash.
    """

    def __init__(self, program: TealProgram | TealSyntaxError, layout: StateLayout):
        super().__init__(layout, (layout.global_keys, layout.box_keys))
        self.program = program
        self.vm = AVM()

    def _run(
        self, template: ActionTemplate, stores: tuple[dict[bytes, Any], ...], clock: Any, balance: Any
    ) -> _Outcome:
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
            timestamp=clock,
            app_address=_APP_ADDRESS,
            app_balance=balance,
            budget_pool=MAX_BUDGET_POOL,
        )
        try:
            result = self.vm.execute(app, ctx)
        except AvmPanic as panic:
            return _Outcome("rejected", str(panic))
        except AvmError as error:
            return _Outcome("machine-error", str(error))
        return self._accepted_outcome(
            (
                (tuple(result.global_writes.items()), tuple(result.global_deletes)),
                (tuple(result.box_writes.items()), tuple(result.box_deletes)),
            ),
            tuple(result.inner_payments),
            tuple(result.logs),
            result.return_value,
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


def _events_and_ret(
    backend: str, logs: tuple[Any, ...], ret: Any, ret_kind: str | None
) -> tuple[tuple[Any, ...], bytes | None]:
    """An accepted call's events and return value, canonically encoded."""
    if backend == "evm":
        events = tuple([(event, tuple(map(canon, payload))) for event, payload in logs])
    else:
        events, ret = _parse_avm_logs(logs)
        if ret is not None and ret_kind == "uint":
            ret = int.from_bytes(ret, "big")
    return events, None if ret_kind is None or ret is None else canon(ret)


def _observables(backend: str, result: StepResult, layout: StateLayout, ret_kind: str | None) -> list[tuple[str, Any]]:
    """Every observable effect of an accepted call, canonically encoded
    and labelled the way a divergence message names it."""
    state = result.state
    events, ret = _events_and_ret(backend, result.logs, result.ret, ret_kind)
    return [
        *(
            (f"global {name!r} differs", canon(value))
            for name, value in zip(layout.names, state.cells)
            if value is not UNSET
        ),
        *(
            (f"map entry {entry} differs", None if value is UNSET else canon(value))
            for entry, value in state.map_cells()
        ),
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
        self.genesis = MCState.of(layout, {}, {}, 0, GENESIS_NOW)  # the empty store the constructor runs against
        self.ret_kinds = {name: function.ret_kind for name, function in compiled.ir.functions.items()}
        # Digests by state value: most steps land on a state already
        # seen, and a lookup is far cheaper than re-encoding.  Equal
        # states encode equally (the VM stores hold only ints, bytes and
        # strs), and one layout serves both backends.
        self._digests: dict[MCState, bytes] = {}
        # Whether two outcomes agree, by (EVM outcome id, AVM outcome id,
        # return kind): a few hundred pairs recur across ten thousand
        # steps.  Each entry holds its two outcomes, so their ids name
        # no other object while it lives.
        self._agreed: dict[tuple[int, int, str | None], tuple[_Outcome, _Outcome, bool]] = {}

    def digest(self, state: MCState) -> bytes:
        digest = self._digests.get(state)
        if digest is None:
            digest = self.layout.digest(state.cells, state.balance, state.now)
            self._digests[state] = digest
        return digest

    def deploy(self) -> LockstepResult:
        return self.step(Pair(self.genesis, self.genesis), DEPLOY)

    def step(self, pair: Pair, template: ActionTemplate) -> LockstepResult:
        """Apply ``template`` on both backends and compare what they did."""
        return self.step_all(pair, (template,))[0]

    def step_all(self, pair: Pair, templates: Sequence[ActionTemplate]) -> list[LockstepResult]:
        """:meth:`step` for each template from one state.

        Each VM makes all its calls before the other starts, which keeps
        one interpreter's working set hot.  When the two states have one
        digest and the two outcomes agree (:meth:`_agree`), the
        successors have one digest too, so only the EVM's is looked up.
        """
        evm_state, avm_state = pair
        evm, avm = self.evm, self.avm
        evm_outcomes = evm.outcomes(evm_state, templates)
        avm_outcomes = avm.outcomes(avm_state, templates)
        evm_base, avm_base = evm.base(evm_state), avm.base(avm_state)
        twins = self.digest(evm_state) == self.digest(avm_state)
        results = []
        for template, evm_outcome, avm_outcome in zip(templates, evm_outcomes, avm_outcomes):
            if evm_outcome is None or avm_outcome is None:
                results.append(self._compare(template, evm.tick(evm_state), avm.tick(avm_state)))
                continue
            evm_result = evm.result(evm_state, template, evm_base, evm_outcome)
            avm_result = avm.result(avm_state, template, avm_base, avm_outcome)
            if twins and self._agree(template, evm_outcome, avm_outcome):
                digest = self.digest(evm_result.state) if evm_outcome.status == "ok" else None
                results.append(_new(LockstepResult, (evm_result, avm_result, digest, ())))
            else:
                results.append(self._compare(template, evm_result, avm_result))
        return results

    def _agree(self, template: ActionTemplate, evm: _Outcome, avm: _Outcome) -> bool:
        """Both calls rejected, or both accepted with equal transfers,
        canonically equal events and return value, and canonically equal
        cell edits: from one digest, successors of one digest."""
        ret_kind = self.ret_kinds.get(template.fn)
        key = (id(evm), id(avm), ret_kind)
        known = self._agreed.get(key)
        if known is None:
            if evm.status == "ok" == avm.status:
                agree = (
                    evm.transfers == avm.transfers
                    and _events_and_ret("evm", evm.logs, evm.ret, ret_kind)
                    == _events_and_ret("avm", avm.logs, avm.ret, ret_kind)
                    and _canonical_edits(evm) == _canonical_edits(avm)
                )
            else:
                agree = evm.status == "rejected" == avm.status
            known = self._agreed[key] = (evm, avm, agree)
        return known[2]

    def _compare(self, template: ActionTemplate, evm: StepResult, avm: StepResult) -> LockstepResult:
        """The full agreement check; the difference list when it fails."""
        ret_kind = self.ret_kinds.get(template.fn)
        digest = None
        if evm.status == "ok" == avm.status:
            digest = self.digest(evm.state)
            if (
                evm.transfers == avm.transfers
                and digest == self.digest(avm.state)
                and _events_and_ret("evm", evm.logs, evm.ret, ret_kind)
                == _events_and_ret("avm", avm.logs, avm.ret, ret_kind)
            ):
                return LockstepResult(evm, avm, digest, ())
        elif evm.status == "rejected" == avm.status:
            return LockstepResult(evm, avm, None, ())
        return LockstepResult(evm, avm, digest, tuple(_diff(template.name, evm, avm, self.layout, ret_kind)))


def _canonical_edits(outcome: _Outcome) -> tuple[tuple[int, bytes | None], ...]:
    """An accepted outcome's cell edits, canonically encoded."""
    return tuple([(cell, None if value is UNSET else canon(value)) for cell, value in outcome.edits])


def make_lockstep(compiled: CompiledContract, keys: tuple[int, ...]) -> Lockstep:
    """Both backend models of one compiled contract, tracking every Map
    slot at each of ``keys``; the TEAL artifact is assembled here."""
    ir = compiled.ir
    layout = StateLayout(
        sorted(scalar_names(ir)),
        [(slot, key) for slot in sorted(ir.map_slots.values()) for key in keys],
    )
    return Lockstep(compiled, assemble_teal(compiled.teal_source), layout)
