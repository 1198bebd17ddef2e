"""Tests for the non-blocking Reach runtime (OpHandle pipelining)."""

import pytest

from repro.chain import TxStatus, make_chain
from repro.chain.base import drive
from repro.chain.ethereum import EthereumChain
from repro.core.contract import build_pol_program, pol_record
from repro.reach.compiler import compile_program
from repro.reach import runtime
from repro.reach.runtime import EVM_CALL_GAS_LIMIT, ReachCallError, ReachClient, ReachRuntimeError
from repro.reach.types import ReachTypeError

ETH = 10**18
OLC = "8FPHC9C2+22"


@pytest.fixture
def chain() -> EthereumChain:
    return EthereumChain(profile="eth-devnet", seed=5, validator_count=4)


@pytest.fixture
def client(chain) -> ReachClient:
    return ReachClient(chain)


def fund(chain, name: str):
    return chain.create_account(seed=f"async/{name}".encode(), funding=10 * ETH)


def compiled_contract(max_users: int = 40):
    return compile_program(build_pol_program(max_users=max_users, reward=1_000))


def record_for(account, did: int) -> str:
    return pol_record(f"hash-{did}", f"sig-{did}", account.address, did * 7, f"cid-{did}")


class TestOpHandle:
    def test_deploy_async_settles_into_a_contract(self, chain, client):
        creator = fund(chain, "creator")
        handle = client.deploy_async(compiled_contract(), creator, [OLC, 1, record_for(creator, 1)])
        assert not handle.done
        deployed = handle.wait().value
        assert deployed.ref
        assert len(handle.receipts) == 2  # EVM: create + publish0
        assert handle.span > 0

    def test_blocking_deploy_is_the_async_wait(self, chain, client):
        creator = fund(chain, "creator")
        deployed = client.deploy(compiled_contract(), creator, [OLC, 1, record_for(creator, 1)])
        assert len(deployed.deploy_result.receipts) == 2

    def test_api_async_returns_decoded_value(self, chain, client):
        creator = fund(chain, "creator")
        attacher = fund(chain, "attacher")
        deployed = client.deploy(compiled_contract(4), creator, [OLC, 1, record_for(creator, 1)])
        handle = deployed.api_async("attacherAPI.insert_data", record_for(attacher, 2), 2, sender=attacher)
        seats_left = handle.wait().value
        assert seats_left == 2  # 4 seats, creator + one attacher seated

    def test_plan_failure_surfaces_on_wait(self, chain, client):
        creator = fund(chain, "creator")
        deployed = client.deploy(compiled_contract(4), creator, [OLC, 1, record_for(creator, 1)])
        handle = deployed.attach_and_call_async(
            "attacherAPI.insert_data", record_for(creator, 1), 1, sender=fund(chain, "dup")
        )
        with pytest.raises(ReachCallError):  # DID 1 already attached
            handle.wait()
        assert handle.done
        assert handle.error is not None

    def test_unknown_method_fails_fast(self, chain, client):
        creator = fund(chain, "creator")
        deployed = client.deploy(compiled_contract(4), creator, [OLC, 1, record_for(creator, 1)])
        handle = deployed.api_async("no_such_method", sender=creator)
        with pytest.raises(ReachRuntimeError):
            handle.wait()

    def test_attach_after_pending_deploy(self, chain, client):
        """An attacher pipelines behind a deploy still in flight."""
        creator = fund(chain, "creator")
        attacher = fund(chain, "attacher")
        deploy = client.deploy_async(compiled_contract(4), creator, [OLC, 1, record_for(creator, 1)])
        chained = client.attach_and_call_after(
            deploy, "attacherAPI.insert_data", [record_for(attacher, 2), 2], sender=attacher
        )
        chained.wait()
        # The deploy's receipts stay with the deployer's handle.
        assert len(deploy.receipts) == 2
        assert len(chained.receipts) == 2  # handshake + call only
        assert chained.value == 2


class TestMassInterleaving:
    """Acceptance: >= 32 in-flight user operations on one event queue,
    with simulated wall-clock strictly below the serialized sum."""

    USERS = 36

    def test_32_plus_operations_interleave(self, chain, client):
        compiled = compiled_contract(max_users=self.USERS + 4)
        creator = fund(chain, "creator")
        deployed = client.deploy(compiled, creator, [OLC, 1, record_for(creator, 1)])

        attachers = [fund(chain, f"user-{i}") for i in range(self.USERS)]
        handles = [
            client.attach_and_call_async(
                deployed, "attacherAPI.insert_data",
                [record_for(account, 100 + i), 100 + i],
                sender=attachers[i],
            )
            for i, account in enumerate(attachers)
        ]
        # Every operation's first transaction is already in the mempool:
        # all of them are genuinely in flight on the one queue.
        assert len(handles) >= 32
        assert chain.mempool_depth >= 32
        assert not any(handle.done for handle in handles)

        drive(chain.queue, lambda: all(handle.done for handle in handles), chain=chain)

        for handle in handles:
            assert handle.error is None
            assert len(handle.receipts) == 2

        wall = max(h.finished_at for h in handles) - min(h.started_at for h in handles)
        serialized = sum(h.span for h in handles)
        assert wall < serialized  # strictly below the serialized sum
        # The pipelining win is structural, not marginal.
        assert wall < serialized / 4


class TestIllTypedArguments:
    """ReachClient checks every argument against its declared type
    before it builds a transaction: an ill-typed one raises the same
    ReachTypeError on both families and costs no fee."""

    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["ok", 2**70], "argument 1: UInt out of range"),
            (["ok", -1], "argument 1: UInt out of range"),
            (["ok", "12"], "argument 1: expected UInt, got str"),
            (["ok", True], "argument 1: expected UInt, got bool"),
            (["x" * 2_000, 2], "argument 0: 2000 bytes exceed Bytes"),
            (["ok"], "expects 2 arguments, got 1"),
        ],
    )
    def test_call_rejected_before_any_transaction(self, network, args, message):
        chain = make_chain(network, seed=1)
        client = ReachClient(chain)
        funding = chain.profile.simulation_funding
        creator, attacher = (chain.create_account(funding=funding) for _ in range(2))
        deployed = client.deploy(compiled_contract(4), creator, [OLC, 1, record_for(creator, 1)])
        before = chain.balance_of(attacher.address), chain.next_nonce_for(attacher.address)

        call = client.attach_and_call_async(deployed, "attacherAPI.insert_data", args, sender=attacher)
        with pytest.raises(ReachTypeError, match=message):
            call.wait()
        assert call.receipts == [] and chain.mempool_depth == 0
        assert (chain.balance_of(attacher.address), chain.next_nonce_for(attacher.address)) == before

    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_deploy_rejected_before_any_transaction(self, network):
        chain = make_chain(network, seed=1)
        creator = chain.create_account(funding=chain.profile.simulation_funding)
        before = chain.balance_of(creator.address), chain.next_nonce_for(creator.address)
        with pytest.raises(ReachTypeError, match="publish0 argument 1: UInt out of range"):
            ReachClient(chain).deploy(compiled_contract(4), creator, [OLC, 2**64, record_for(creator, 1)])
        assert chain.mempool_depth == 0
        assert (chain.balance_of(creator.address), chain.next_nonce_for(creator.address)) == before


class TestUnencodableArguments:
    """An integer no VM word can hold fails its own call, not the chain.

    Storing the DID as a Map key encodes it as a 256-bit EVM word or a
    uint64 ``itob``; -1, 2**256 (EVM) and 2**64 (AVM) have no encoding.
    ReachClient rejects such a value before it builds a transaction, so
    the test switches that check off, as a client that skips it would.
    The interpreters then report a machine error, which the chain turns
    into a failed receipt -- on the EVM an exceptional halt that pays
    the whole gas limit -- and block production carries on.
    """

    @pytest.mark.parametrize(
        "network, bad",
        [("goerli", -1), ("goerli", 2**256), ("algorand-testnet", -1), ("algorand-testnet", 2**64)],
    )
    def test_bad_call_fails_and_the_next_one_confirms(self, network, bad, monkeypatch):
        monkeypatch.setattr(runtime, "_check_args", lambda *_: None)
        chain = make_chain(network, seed=1)
        client = ReachClient(chain)
        funding = chain.profile.simulation_funding
        creator, attacher, honest = (chain.create_account(funding=funding) for _ in range(3))
        deployed = client.deploy(compiled_contract(4), creator, [OLC, 1, record_for(creator, 1)])

        bad_call = client.attach_and_call_async(
            deployed, "attacherAPI.insert_data", [record_for(attacher, 2), bad], sender=attacher
        )
        with pytest.raises(ReachCallError) as excinfo:
            bad_call.wait()
        failed = excinfo.value.receipt
        assert failed.status is TxStatus.REVERTED
        assert str(bad) in failed.error
        if chain.profile.family == "evm":
            assert failed.gas_used == EVM_CALL_GAS_LIMIT

        good_call = client.attach_and_call_async(
            deployed, "attacherAPI.insert_data", [record_for(honest, 3), 3], sender=honest
        )
        assert good_call.wait().value == 2  # 4 seats: creator + one attacher seated
        assert all(receipt.status is TxStatus.SUCCESS for receipt in good_call.receipts)
