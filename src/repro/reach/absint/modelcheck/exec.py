"""Backend execution models: one checker semantics, two real VMs.

The model checker does not interpret the IR abstractly -- it runs the
*emitted artifacts* on the same EVM and AVM implementations production
traffic uses, so a theorem proved here is a theorem about the code that
ships.  Each model wraps one backend behind a tiny interface:

- :meth:`deploy` runs the constructor and returns the initial state;
- :meth:`step` applies one :class:`ActionTemplate` to a state and
  reports accept/reject plus the successor;
- :meth:`digest` hashes a state canonically, via
  :mod:`repro.reach.absint.encode`, so the same protocol state produces
  the same digest on both backends (the cross-backend state-space
  equality check rides on this).

States are immutable snapshots (:class:`MCState`); each call gets fresh
VM stores built from the snapshot, so the explorer can fan a state out
over every enabled action.  A checking run makes about ten thousand
calls per backend, so nothing per-call is rebuilt that can be built
once: the TEAL artifact is assembled once per model (both VMs then
cache their decoded program on the artifact), and every storage key,
box name and digest prefix comes precomputed from the model's
:class:`~repro.reach.absint.encode.StateLayout`.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from repro.chain.algorand.avm import AVM, Application, AvmError, AvmPanic, CallContext
from repro.chain.algorand.teal import assemble
from repro.chain.ethereum.evm import EVM, EvmContract, VMError, VMRevert
from repro.reach.absint.encode import StateLayout, is_absent, scalar_names, uint_of
from repro.reach.absint.modelcheck.universe import (
    CREATOR,
    GENESIS_NOW,
    ActionTemplate,
    Universe,
)
from repro.reach.compiler import CompiledContract
from repro.reach.ir import IRContract

_APP_ADDRESS = "0x" + "aa" * 20
_GAS_LIMIT = 1_000_000_000


class MCState(NamedTuple):
    """One immutable protocol state, in backend-native representation.

    ``scalars`` holds every runtime global sorted by name; ``maps``
    holds only *present* entries, sorted by (slot, key).  ``balance``
    and ``now`` live outside the VM stores: the VMs treat both as
    per-call inputs, so the checker owns them.  (A named tuple rather
    than a frozen dataclass: a checking run builds tens of thousands.)
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


class StepResult(NamedTuple):
    """Observable outcome of applying one action to one state."""

    status: str  # "ok" | "rejected" | "machine-error"
    state: MCState  # the successor (== the input state unless "ok")
    transfers: tuple[tuple[str, int], ...] = ()
    error: str = ""

    @property
    def paid_out(self) -> int:
        return sum(amount for _to, amount in self.transfers)


class BackendModel:
    """Shared state plumbing; subclasses supply the VM call."""

    backend = "?"

    def __init__(self, ir: IRContract, universe: Universe):
        self.ir = ir
        self.universe = universe
        self.layout = StateLayout(
            sorted(scalar_names(ir)),
            [(slot, key) for slot in sorted(ir.map_slots.values()) for key in universe.keys],
        )

    # -- subclass surface ----------------------------------------------------

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        raise NotImplementedError

    def deploy(self) -> StepResult:
        raise NotImplementedError

    # -- common --------------------------------------------------------------

    def step(self, state: MCState, template: ActionTemplate) -> StepResult:
        if template.kind == "clock":
            deadline = state.deadline()
            if state.now > deadline:
                return StepResult(status="rejected", state=state, error="clock already past deadline")
            return StepResult(status="ok", state=state.with_clock(deadline + 1))
        return self._execute(state, template)

    def digest(self, state: MCState) -> bytes:
        return self.layout.digest(state.scalars, state.maps, state.balance, state.now)

    def _globals_of(self, state: MCState) -> dict[bytes, object]:
        """The state's scalars keyed as both VMs store them."""
        return {key: value for key, (_name, value) in zip(self.layout.global_keys, state.scalars)}

    def _snapshot(
        self,
        globals_: Mapping[bytes, object],
        cells: Mapping[bytes, object],
        cell_keys: tuple[bytes, ...],
        balance: int,
        now: int,
    ) -> MCState:
        """Read an MCState back out of a VM's post-call stores.

        ``cell_keys`` are the backend's keys for ``layout.entries``, in
        order; absent, zero and empty cells are not part of the state.
        """
        layout = self.layout
        scalars = tuple([(name, globals_.get(key, 0)) for name, key in zip(layout.names, layout.global_keys)])
        maps = []
        for entry, key in zip(layout.entries, cell_keys):
            value = cells.get(key)
            if value is not None and not is_absent(value):
                maps.append((entry, value))
        return MCState(scalars=scalars, maps=tuple(maps), balance=balance, now=now)


class EvmModel(BackendModel):
    """The Ethereum side: emitted EVM code on the gas-metered VM."""

    backend = "evm"

    def __init__(self, compiled: CompiledContract, universe: Universe):
        super().__init__(compiled.ir, universe)
        self.code = compiled.evm_code
        self.vm = EVM()

    def deploy(self) -> StepResult:
        contract = EvmContract(address=_APP_ADDRESS, code=self.code, creator=CREATOR)
        result = self.vm.execute(
            contract,
            entry=self.code.init_entry,
            args=[],
            caller=CREATOR,
            value=0,
            gas_limit=_GAS_LIMIT,
            block_number=1,
            timestamp=float(GENESIS_NOW),
            self_balance=0,
            intrinsic=0,
        )
        storage = result.storage_writes
        state = self._snapshot(storage, storage, self.layout.evm_keys, balance=0, now=GENESIS_NOW)
        return StepResult(status="ok", state=state)

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        storage = self._globals_of(state)
        evm_key_of = self.layout.evm_key_of
        for entry, value in state.maps:
            storage[evm_key_of[entry]] = value
        contract = EvmContract(address=_APP_ADDRESS, code=self.code, storage=storage, creator=CREATOR)
        try:
            result = self.vm.execute(
                contract,
                entry=self.code.methods[template.fn],
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
            return StepResult(status="rejected", state=state, error=str(revert))
        except VMError as error:
            return StepResult(status="machine-error", state=state, error=str(error))
        storage.update(result.storage_writes)
        transfers = tuple(result.transfers)
        paid = sum(amount for _to, amount in transfers)
        successor = self._snapshot(
            storage,
            storage,
            self.layout.evm_keys,
            balance=state.balance + template.value - paid,
            now=state.now,
        )
        return StepResult(status="ok", state=successor, transfers=transfers)


class AvmModel(BackendModel):
    """The Algorand side: assembled TEAL on the budget-metered AVM."""

    backend = "avm"

    def __init__(self, compiled: CompiledContract, universe: Universe):
        super().__init__(compiled.ir, universe)
        # Assemble once; the AVM caches the decoded program on it.
        self.program = assemble(compiled.teal_source)
        self.vm = AVM()

    def deploy(self) -> StepResult:
        app = Application(app_id=0, approval=self.program, creator=CREATOR, address=_APP_ADDRESS)
        ctx = CallContext(
            sender=CREATOR,
            application_id=0,
            app_args=[],
            amount=0,
            round=1,
            timestamp=float(GENESIS_NOW),
            app_address=_APP_ADDRESS,
            app_balance=0,
            budget_pool=16,
        )
        result = self.vm.execute(app, ctx)
        state = self._snapshot(
            result.global_writes, result.box_writes, self.layout.box_keys, balance=0, now=GENESIS_NOW
        )
        return StepResult(status="ok", state=state)

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        global_state = self._globals_of(state)
        box_key_of = self.layout.box_key_of
        boxes: dict[bytes, Any] = {box_key_of[entry]: value for entry, value in state.maps}
        app = Application(
            app_id=1,
            approval=self.program,
            creator=CREATOR,
            address=_APP_ADDRESS,
            global_state=global_state,
            boxes=boxes,
        )
        ctx = CallContext(
            sender=template.caller,
            application_id=1,
            app_args=[template.fn, *template.args],
            amount=template.value,
            round=1,
            timestamp=float(state.now),
            app_address=_APP_ADDRESS,
            app_balance=state.balance,
            budget_pool=16,
        )
        try:
            result = self.vm.execute(app, ctx)
        except AvmPanic as panic:
            return StepResult(status="rejected", state=state, error=str(panic))
        except AvmError as error:
            return StepResult(status="machine-error", state=state, error=str(error))
        global_state.update(result.global_writes)
        for dead in result.global_deletes:
            global_state.pop(dead, None)
        boxes.update(result.box_writes)
        for dead in result.box_deletes:
            boxes.pop(dead, None)
        transfers = tuple(result.inner_payments)
        paid = sum(amount for _to, amount in transfers)
        successor = self._snapshot(
            global_state,
            boxes,
            self.layout.box_keys,
            balance=state.balance + template.value - paid,
            now=state.now,
        )
        return StepResult(status="ok", state=successor, transfers=transfers)


def make_models(compiled: CompiledContract, universe: Universe) -> tuple[EvmModel, AvmModel]:
    """Both backend models for one compiled contract."""
    return EvmModel(compiled, universe), AvmModel(compiled, universe)
