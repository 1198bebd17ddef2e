"""Serial vs. concurrent simulation parity, across both chain families.

The async pipeline must not change *what* any user executes: the same
ceremonies, the same gas.  Two regimes:

- On the deterministic devnets (zero jitter/congestion) operation order
  is preserved exactly, so per-user gas and transaction counts are
  identical between the serial and concurrent harnesses -- and on the
  flat-fee AVM chain the fees are too.  EVM fees are the one quantity
  that legitimately moves: EIP-1559 prices a transaction by the base
  fee of its including block, and concurrency changes block occupancy.
- On the jittered chapter-5 testnets, per-receipt provider jitter can
  reorder which attacher fills which seat, so gas parity holds as a
  per-operation multiset (total work unchanged) while deploys -- which
  stay serialized in both harnesses -- remain per-user identical.
"""

import pytest

from repro.bench.simulation import run_simulation

USERS = 8
SEED = 11


def by_user(result):
    return {t.name: t for t in result.timings}


class TestDevnetExactParity:
    @pytest.mark.parametrize("network", ["eth-devnet", "algo-devnet"])
    def test_per_user_gas_and_ceremonies_identical(self, network):
        serial = by_user(run_simulation(network, USERS, seed=SEED))
        concurrent = by_user(run_simulation(network, USERS, seed=SEED, concurrent=True))
        assert serial.keys() == concurrent.keys()
        for name in serial:
            assert serial[name].operation == concurrent[name].operation
            assert serial[name].gas_used == concurrent[name].gas_used
            assert serial[name].transactions == concurrent[name].transactions

    def test_flat_fee_chain_fees_identical_per_user(self):
        serial = by_user(run_simulation("algo-devnet", USERS, seed=SEED))
        concurrent = by_user(run_simulation("algo-devnet", USERS, seed=SEED, concurrent=True))
        for name in serial:
            assert serial[name].fees == concurrent[name].fees


class TestTestnetParity:
    @pytest.mark.parametrize("network", ["goerli", "polygon-mumbai", "algorand-testnet"])
    def test_deploys_identical_and_attach_work_conserved(self, network):
        serial = run_simulation(network, USERS, seed=SEED)
        concurrent = run_simulation(network, USERS, seed=SEED, concurrent=True)

        # Deploys stay serialized in both harnesses: per-user identical
        # work.  (Fees are time-dependent on EVM: the concurrent harness
        # front-loads the second creator's deploy, so its base fee moves;
        # the flat-fee check below pins fees where the protocol fixes them.)
        for ser, con in zip(serial.deploys(), concurrent.deploys()):
            assert (ser.name, ser.gas_used, ser.transactions) == (
                con.name, con.gas_used, con.transactions
            )

        # Attachers all run the same 2-transaction ceremony; jitter may
        # swap who takes the last seat, but the multiset of gas costs
        # (the total work) is conserved.
        ser_attach = serial.attaches()
        con_attach = concurrent.attaches()
        assert [t.transactions for t in con_attach] == [t.transactions for t in ser_attach]
        assert sorted(t.gas_used for t in con_attach) == sorted(t.gas_used for t in ser_attach)

    def test_flat_fee_testnet_fees_identical_per_user(self):
        serial = by_user(run_simulation("algorand-testnet", USERS, seed=SEED))
        concurrent = by_user(run_simulation("algorand-testnet", USERS, seed=SEED, concurrent=True))
        for name in serial:
            assert serial[name].fees == concurrent[name].fees

    def test_concurrent_attachers_finish_sooner_than_serialized(self):
        """The pipeline's point: overlapping users beat the serial sum."""
        serial = run_simulation("goerli", USERS, seed=SEED)
        concurrent = run_simulation("goerli", USERS, seed=SEED, concurrent=True)
        serial_sum = sum(t.latency for t in serial.attaches())
        concurrent_wall = max(t.latency for t in concurrent.attaches())
        assert concurrent_wall < serial_sum

    def test_shape_criteria_hold_on_the_concurrent_path(self):
        """Chapter-5 shape: attach cheaper/faster than deploy, per net."""
        for network in ("goerli", "algorand-testnet"):
            result = run_simulation(network, USERS, seed=SEED, concurrent=True)
            deploy_mean = sum(t.latency for t in result.deploys()) / len(result.deploys())
            attach_mean = sum(t.latency for t in result.attaches()) / len(result.attaches())
            assert attach_mean < deploy_mean
