"""Tests for the TEAL assembler, AVM and the Algorand chain."""

import pytest

from repro.chain import ChainService, TxStatus
from repro.chain.algorand import AlgorandChain, AvmPanic, assemble
from repro.chain.algorand.avm import AVM, Application, CallContext
from repro.chain.algorand.teal import TealSyntaxError

ALGO = 10**6


def run_teal(source, sender="SENDER", args=None, app_balance=0, amount=0, budget_pool=1):
    program = assemble(source)
    app = Application(app_id=1, approval=program, creator=sender, address="APPADDR")
    ctx = CallContext(
        sender=sender,
        application_id=1,
        app_args=args or [],
        amount=amount,
        app_address="APPADDR",
        app_balance=app_balance,
        budget_pool=budget_pool,
    )
    return AVM().execute(app, ctx), app


class TestAssembler:
    def test_assembles_figure_1_7_style_program(self):
        source = """
        // creation check like figure 1.7
        txn ApplicationID
        bz not_creation
        int 0
        return
        not_creation:
        byte "Creator"
        txn Sender
        app_global_put
        int 1
        return
        """
        program = assemble(source)
        assert "not_creation" in program.labels

    def test_unknown_opcode_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble("frobnicate")

    def test_unknown_label_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble("b nowhere")

    def test_duplicate_label_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble("here:\nhere:\nint 1\nreturn")

    def test_unterminated_string_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble('byte "oops')

    def test_byte_hex_literal(self):
        program = assemble('byte 0xdeadbeef\nlen\nreturn')
        assert program.instrs[0].args[0] == bytes.fromhex("deadbeef")

    def test_comments_and_blanks_ignored(self):
        program = assemble("\n// nothing\nint 1 // inline\nreturn\n")
        assert len(program.instrs) == 2


class TestAVM:
    def test_arithmetic_and_return(self):
        result, _ = run_teal("int 2\nint 3\n+\nint 5\n==\nreturn")
        assert result.approved

    def test_rejection_raises(self):
        with pytest.raises(AvmPanic):
            run_teal("int 0\nreturn")

    def test_assert_failure(self):
        with pytest.raises(AvmPanic):
            run_teal("int 0\nassert\nint 1\nreturn")

    def test_uint64_underflow_panics(self):
        with pytest.raises(AvmPanic):
            run_teal("int 1\nint 2\n-\nreturn")

    def test_division_by_zero_panics(self):
        with pytest.raises(AvmPanic):
            run_teal("int 1\nint 0\n/\nreturn")

    def test_global_state_roundtrip(self):
        result, _ = run_teal(
            'byte "k"\nint 42\napp_global_put\nbyte "k"\napp_global_get\nint 42\n==\nreturn'
        )
        assert result.global_writes[b"k"] == 42

    def test_box_roundtrip(self):
        result, _ = run_teal(
            'byte "name"\nbyte "value"\nbox_put\nbyte "name"\nbox_get\nassert\nbyte "value"\n==\nreturn'
        )
        assert result.box_writes[b"name"] == b"value"

    def test_missing_box_flag_zero(self):
        result, _ = run_teal('byte "ghost"\nbox_get\n!\nassert\npop\nint 1\nreturn')
        assert result.approved

    def test_txn_sender(self):
        result, _ = run_teal('txn Sender\nbyte "SENDER"\n==\nreturn', sender="SENDER")
        assert result.approved

    def test_app_args(self):
        result, _ = run_teal("txna ApplicationArgs 0\nint 9\n==\nreturn", args=[9])
        assert result.approved

    def test_inner_payment_requires_balance(self):
        result, _ = run_teal('addr RCVR\nint 500\nitxn_pay\nint 1\nreturn', app_balance=1_000)
        assert result.inner_payments == [("RCVR", 500)]
        with pytest.raises(AvmPanic):
            run_teal('addr RCVR\nint 5000\nitxn_pay\nint 1\nreturn', app_balance=1_000)

    def test_opcode_budget_exhausted(self):
        looping = "top:\nint 1\npop\nb top"
        with pytest.raises(AvmPanic) as excinfo:
            run_teal(looping)
        assert "budget" in str(excinfo.value)

    def test_budget_pool_extends_budget(self):
        body = "int 1\npop\n" * 500 + "int 1\nreturn"
        with pytest.raises(AvmPanic):
            run_teal(body, budget_pool=1)
        result, _ = run_teal(body, budget_pool=3)
        assert result.approved

    @pytest.mark.parametrize("pool, budget", [(0, 700), (1, 700), (3, 2_100), (16, 11_200), (40, 11_200)])
    def test_budget_runs_out_at_exactly_700_ops_per_pooled_call(self, pool, budget):
        def countdown(extra_ops):
            # int N; loop: int 1; -; dup; bnz loop; int 1; return
            # runs 4N + 3 ops; ``int 0`` pads (left under the counter)
            # tune the total to the budget plus ``extra_ops``.
            pad = (budget - 3) % 4
            iterations = (budget - 3 - pad) // 4
            body = f"int {iterations}\nloop:\nint 1\n-\ndup\nbnz loop\nint 1\nreturn"
            return "int 0\n" * (pad + extra_ops) + body

        result, _ = run_teal(countdown(0), budget_pool=pool)
        assert result.ops_used == budget
        with pytest.raises(AvmPanic, match="opcode budget exhausted"):
            run_teal(countdown(1), budget_pool=pool)

    def test_callsub_retsub(self):
        source = """
        callsub helper
        int 10
        ==
        return
        helper:
        int 10
        retsub
        """
        result, _ = run_teal(source)
        assert result.approved

    def test_itob_btoi_roundtrip(self):
        result, _ = run_teal("int 123456\nitob\nbtoi\nint 123456\n==\nreturn")
        assert result.approved


CREATE_OR_PUT = """
txn ApplicationID
bz creation
byte "last_sender"
txn Sender
app_global_put
int 1
return
creation:
byte "Creator"
txn Sender
app_global_put
int 1
return
"""


class TestAlgorandChain:
    @pytest.fixture
    def chain(self):
        return AlgorandChain(profile="algo-devnet", seed=7, participant_count=6)

    @pytest.fixture
    def service(self, chain):
        return ChainService(chain)

    @pytest.fixture
    def alice(self, chain):
        return chain.create_account(seed=b"alice", funding=100 * ALGO)

    def test_addresses_are_58_chars(self, alice):
        assert len(alice.address) == 58

    def test_payment_flat_fee(self, chain, alice, service):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        tx = service.build(alice, "transfer", to=bob.address, value=ALGO)
        receipt = service.submit(alice, tx).result()
        assert receipt.status is TxStatus.SUCCESS
        assert receipt.fee_paid == 1_000

    def test_min_balance_enforced(self, chain, alice, service):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        # Leave bob with less than 0.1 ALGO -> rejected.
        tx = service.build(bob, "transfer", to=alice.address, value=ALGO - 50_000)
        receipt = service.submit(bob, tx).result()
        assert receipt.status is TxStatus.REVERTED
        assert "minimum balance" in receipt.error

    def test_app_create_and_call(self, chain, alice, service):
        program_hash = chain.register_program(CREATE_OR_PUT)
        create = service.build(alice, "create", data={"program_hash": program_hash, "args": []})
        created = service.submit(alice, create).result()
        assert created.status is TxStatus.SUCCESS
        app_id = int(created.contract_address)
        app = chain.apps[app_id]
        assert app.global_state[b"Creator"] == alice.address

        call = service.build(alice, "call", data={"app_id": app_id, "args": []})
        called = service.submit(alice, call).result()
        assert called.status is TxStatus.SUCCESS
        assert app.global_state[b"last_sender"] == alice.address

    def test_failed_call_charges_nothing(self, chain, alice, service):
        program_hash = chain.register_program("int 0\nreturn")
        create = service.build(alice, "create", data={"program_hash": program_hash, "args": []})
        receipt = service.submit(alice, create).result()
        assert receipt.status is TxStatus.REVERTED
        assert receipt.fee_paid == 0

    def test_optin_tracked(self, chain, alice, service):
        program_hash = chain.register_program(CREATE_OR_PUT)
        create = service.build(alice, "create", data={"program_hash": program_hash, "args": []})
        created = service.submit(alice, create).result()
        app_id = int(created.contract_address)
        call = service.build(alice, "call", data={"app_id": app_id, "on_complete": "optin", "args": []})
        service.submit(alice, call).result()
        assert alice.address in chain.apps[app_id].opted_in

    def test_immediate_finality(self, chain, alice, service):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        tx = service.build(alice, "transfer", to=bob.address, value=1_000)
        receipt = service.submit(alice, tx).result()
        # Confirmed in the same round it was included (no extra depth).
        block_time = chain.blocks[receipt.block_number].timestamp
        assert receipt.confirmed_at == pytest.approx(block_time, abs=chain.profile.block_time)

    def test_certified_rounds_record_committee(self, chain, alice, service):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        tx = service.build(alice, "transfer", to=bob.address, value=1_000)
        service.submit(alice, tx).result()
        certified = [
            b for b in chain.blocks[1:] if b.metadata.get("certified") and "approvals" in b.metadata
        ]
        assert certified, "no certified rounds were produced"
        assert all(b.metadata["approvals"] > 0 for b in certified)
