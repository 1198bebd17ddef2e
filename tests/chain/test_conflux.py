"""Tests for the Conflux Tree-Graph chain: DAG, GHOST, collateral,
and the blockchain-agnostic contract running unmodified on it."""

import pytest

from repro.chain import ChainService, TxStatus
from repro.chain.conflux import ConfluxChain, GhostDag
from repro.chain.conflux.chain import COLLATERAL_PER_SLOT
from repro.chain.conflux.treegraph import TreeGraphError
from repro.core.contract import build_pol_program, pol_record
from repro.reach.compiler import compile_program
from repro.reach.runtime import ReachClient

CFX = 10**18


class TestGhostDag:
    def test_genesis_exists(self):
        dag = GhostDag()
        assert dag.pivot_chain() == ["genesis"]

    def test_linear_growth(self):
        dag = GhostDag()
        dag.add_block("a", "genesis")
        dag.add_block("b", "a")
        assert dag.pivot_chain() == ["genesis", "a", "b"]

    def test_ghost_prefers_heavier_subtree(self):
        dag = GhostDag()
        dag.add_block("a", "genesis")
        dag.add_block("b", "genesis")  # fork
        dag.add_block("b1", "b")
        dag.add_block("b2", "b")
        assert dag.pivot_chain()[1] == "b"  # heavier subtree wins

    def test_referees_add_weight_not_pivot(self):
        dag = GhostDag()
        dag.add_block("a", "genesis")
        dag.add_block("stale", "genesis")
        dag.add_block("a1", "a", referees=("stale",))
        pivot = dag.pivot_chain()
        assert "stale" not in pivot

    def test_unknown_parent_rejected(self):
        with pytest.raises(TreeGraphError):
            GhostDag().add_block("x", "nowhere")

    def test_duplicate_block_rejected(self):
        dag = GhostDag()
        dag.add_block("a", "genesis")
        with pytest.raises(TreeGraphError):
            dag.add_block("a", "genesis")

    def test_tips(self):
        dag = GhostDag()
        dag.add_block("a", "genesis")
        dag.add_block("b", "genesis")
        assert dag.tips() == ["a", "b"]


class TestConfluxChain:
    @pytest.fixture
    def chain(self):
        return ConfluxChain(profile="conflux-devnet", seed=171, miner_count=4)

    @pytest.fixture
    def service(self, chain):
        return ChainService(chain)

    def test_addresses_are_cfx_style(self, chain):
        account = chain.create_account(seed=b"x")
        assert account.address.startswith("cfx:")

    def test_transfers_work(self, chain, service):
        alice = chain.create_account(seed=b"alice", funding=10 * CFX)
        bob = chain.create_account(seed=b"bob")
        receipt = service.submit(alice, service.build(alice, "transfer", to=bob.address, value=CFX)).result()
        assert receipt.status is TxStatus.SUCCESS

    def test_dag_grows_superlinearly_vs_pivot(self, chain, service):
        alice = chain.create_account(seed=b"alice", funding=10 * CFX)
        for _ in range(10):
            service.submit(alice, service.build(alice, "transfer", to=alice.address, value=0)).result()
        # Concurrent mining: the DAG holds more blocks than the pivot chain.
        assert len(chain.dag) > len(chain.dag.pivot_chain()) * 1.05

    def test_proposer_is_pivot_miner(self, chain, service):
        alice = chain.create_account(seed=b"alice", funding=10 * CFX)
        service.submit(alice, service.build(alice, "transfer", to=alice.address, value=0)).result()
        assert all(block.proposer.startswith("cfx:miner-") for block in chain.blocks[1:])

    def test_storage_collateral_locked_on_deploy(self, chain):
        compiled = compile_program(build_pol_program(max_users=2, reward=1_000))
        client = ReachClient(chain)
        creator = chain.create_account(seed=b"creator", funding=100 * CFX)
        client.deploy(compiled, creator, ["LOC", 1, pol_record("h", "s", creator.address, 1, "c")])
        assert chain.collateral.get(creator.address, 0) > 0
        assert chain.collateral.get(creator.address, 0) % COLLATERAL_PER_SLOT == 0

    def test_collateral_refunded_on_release(self, chain):
        compiled = compile_program(build_pol_program(max_users=2, reward=1_000))
        client = ReachClient(chain)
        creator = chain.create_account(seed=b"creator", funding=100 * CFX)
        attacher = chain.create_account(seed=b"attacher", funding=100 * CFX)
        verifier = chain.create_account(seed=b"verifier", funding=100 * CFX)
        deployed = client.deploy(compiled, creator, ["LOC", 1, pol_record("h", "s", creator.address, 1, "c")])
        deployed.attach_and_call(
            "attacherAPI.insert_data", pol_record("h2", "s2", attacher.address, 2, "c2"), 2, sender=attacher
        )
        locked_before = chain.collateral.get(attacher.address, 0)
        assert locked_before > 0
        deployed.api("verifierAPI.insert_money", 2_000, sender=verifier, pay=2_000)
        # verify deletes the attacher's Map row -> releases its slot.
        deployed.api("verifierAPI.verify", 2, attacher.address, sender=verifier)
        assert chain.collateral.get(attacher.address, 0) < locked_before

    def test_same_artifact_as_ethereum(self, chain):
        """The agnostic claim, third connector: byte-identical artifact."""
        from repro.chain.ethereum import EthereumChain
        from repro.chain.ethereum.evm import serialize_code

        compiled = compile_program(build_pol_program(max_users=2, reward=1_000))
        eth = EthereumChain(profile="eth-devnet", seed=171, validator_count=4)
        assert serialize_code(compiled.evm_code) == serialize_code(compiled.evm_code)
        eth_hash = eth.register_code(compiled.evm_code)
        cfx_hash = chain.register_code(compiled.evm_code)
        assert eth_hash == cfx_hash

    def test_full_pol_lifecycle_on_conflux(self, chain):
        compiled = compile_program(build_pol_program(max_users=2, reward=1_000))
        client = ReachClient(chain)
        creator = chain.create_account(seed=b"c", funding=100 * CFX)
        attacher = chain.create_account(seed=b"a", funding=100 * CFX)
        verifier = chain.create_account(seed=b"v", funding=100 * CFX)
        deployed = client.deploy(compiled, creator, ["LOC", 1, pol_record("h", "s", creator.address, 1, "c1")])
        result = deployed.attach_and_call(
            "attacherAPI.insert_data", pol_record("h2", "s2", attacher.address, 2, "c2"), 2, sender=attacher
        )
        assert result.value == 0
        deployed.api("verifierAPI.insert_money", 2_000, sender=verifier, pay=2_000)
        before = chain.balance_of(attacher.address)
        deployed.api("verifierAPI.verify", 2, attacher.address, sender=verifier)
        assert chain.balance_of(attacher.address) >= before + 1_000
