"""Tests for the chain/DHT/radio fault injectors and their hooks."""

import pytest

from repro.chain import ChainService, TransientChainError
from repro.chain.ethereum import EthereumChain
from repro.core.bluetooth import BluetoothChannel, BluetoothError
from repro.dht import HypercubeDHT
from repro.faults import ChainFaultInjector, DhtFaultInjector, FaultPlan, RadioFaultInjector
from repro.faults.plan import FaultWindow
from repro.obs import Recorder

ETH = 10**18


@pytest.fixture
def chain() -> EthereumChain:
    return EthereumChain(profile="eth-devnet", seed=1, validator_count=4)


@pytest.fixture
def service(chain) -> ChainService:
    return ChainService(chain)


def _plan(**kwargs) -> FaultPlan:
    return FaultPlan(seed=0, **kwargs)


class TestChainFaultInjector:
    def test_install_wires_both_hooks(self, chain):
        injector = ChainFaultInjector(_plan()).install(chain)
        assert chain.faults is injector
        assert chain.queue.fault_delay == injector.event_delay

    def test_planned_ordinal_rejected_transiently(self, chain, service):
        ChainFaultInjector(_plan(reject_submissions=frozenset({1}))).install(chain)
        alice = chain.create_account(seed=b"alice", funding=10 * ETH)
        bob = chain.create_account(seed=b"bob")
        tx0 = service.build(alice, "transfer", to=bob.address, value=1)
        chain.sign(alice, tx0)
        chain.submit(tx0)  # ordinal 0: clean
        tx1 = service.build(alice, "transfer", to=bob.address, value=2)
        chain.sign(alice, tx1)
        with pytest.raises(TransientChainError):
            chain.submit(tx1)  # ordinal 1: injected drop
        assert chain.faults.injected == {"tx_rejection": 1}
        # The identical resubmission (ordinal 2) is admitted.
        chain.submit(tx1)
        assert chain.mempool_depth == 2

    def test_fee_spike_holds_without_compounding(self, chain):
        window = FaultWindow("fee_spike", 0.0, 1_000.0, 3.0)
        injector = ChainFaultInjector(_plan(windows=(window,))).install(chain)
        chain.base_fee = 100
        injector.on_block_begin(chain, chain.last_block)
        assert chain.base_fee == 300
        # A second block inside the same window holds the level instead
        # of multiplying again (no 3**n runaway across a long window).
        injector.on_block_begin(chain, chain.last_block)
        assert chain.base_fee == 300
        assert injector.injected == {"fee_spike": 1}

    def test_fee_spike_skips_flat_fee_families(self):
        from repro.chain.algorand import AlgorandChain

        chain = AlgorandChain(profile="algo-devnet", seed=1, participant_count=6)
        window = FaultWindow("fee_spike", 0.0, 1_000.0, 3.0)
        injector = ChainFaultInjector(_plan(windows=(window,))).install(chain)
        injector.on_block_begin(chain, chain.last_block)
        assert injector.injected == {}

    def test_block_stall_delays_block_events(self, chain):
        window = FaultWindow("block_stall", 0.0, 1_000.0, 7.5)
        injector = ChainFaultInjector(_plan(windows=(window,))).install(chain)
        assert injector.event_delay(f"{chain.profile.name}-block", 10.0) == 7.5
        assert injector.event_delay(f"{chain.profile.name}-block", 2_000.0) == 0.0
        assert injector.event_delay("confirm", 10.0) == 0.0
        assert injector.injected == {"block_stall": 1}  # counted once per window

    def test_receipt_delay_slows_confirmations(self, chain):
        window = FaultWindow("receipt_delay", 0.0, 1_000.0, 12.0)
        injector = ChainFaultInjector(_plan(windows=(window,))).install(chain)
        assert injector.event_delay("confirm", 5.0) == 12.0
        assert injector.event_delay("confirm", 6.0) == 12.0
        assert injector.injected == {"receipt_delay": 2}  # each delayed receipt counts

    def test_stall_stretches_real_scheduling(self, chain):
        window = FaultWindow("block_stall", 0.0, 1_000.0, 5.0)
        ChainFaultInjector(_plan(windows=(window,))).install(chain)
        chain.start()
        event_times = sorted(e.time for e in chain.queue._heap)
        assert event_times[0] == chain.profile.block_time + 5.0

    def test_injections_counted_in_telemetry(self):
        recorder = Recorder()
        from repro.simnet import EventQueue

        chain = EthereumChain(
            profile="eth-devnet", seed=1, validator_count=4, queue=EventQueue(recorder=recorder)
        )
        ChainFaultInjector(_plan(reject_submissions=frozenset({0}))).install(chain)
        alice = chain.create_account(seed=b"alice", funding=10 * ETH)
        tx = ChainService(chain).build(alice, "transfer", to=alice.address, value=0)
        chain.sign(alice, tx)
        with pytest.raises(TransientChainError):
            chain.submit(tx)
        assert recorder.counter_value("fault_injected_total", kind="tx_rejection") == 1


class TestDhtFaultInjector:
    def test_crash_and_restore(self):
        dht = HypercubeDHT(r=4, replication=1)
        injector = DhtFaultInjector(dht)
        injector.crash(3)
        assert not dht.nodes[3].online
        injector.restore(3)
        assert dht.nodes[3].online
        assert injector.injected == {"dht_crash": 1}


class TestRadioFaultInjector:
    @pytest.fixture
    def channel(self) -> BluetoothChannel:
        channel = BluetoothChannel()
        channel.register("prover", 44.4949, 11.3426)
        channel.register("witness", 44.4949, 11.3428)  # ~16 m: in range
        return channel

    def test_flap_window_shrinks_the_radio(self, channel):
        RadioFaultInjector(channel, flaps=((1, 2),), factor=0.1)
        channel.send("prover", "witness", "m0")  # ordinal 0: delivered
        with pytest.raises(BluetoothError):
            channel.send("prover", "witness", "m1")  # ordinal 1: flapped
        channel.send("prover", "witness", "m2")  # ordinal 2: recovered
        assert [payload for _, payload in channel.receive("witness")] == ["m0", "m2"]

    def test_send_with_retry_rides_out_the_flap(self, channel):
        radio = RadioFaultInjector(channel, flaps=((0, 3),), factor=0.1)
        attempts = radio.send_with_retry("prover", "witness", "proof")
        assert attempts == 4  # three flapped attempts, then delivery
        assert radio.recovered == 1
        assert radio.injected == {"radio_flap": 1}
        assert channel.messages_sent == 1

    def test_retry_budget_exhaustion_raises(self, channel):
        radio = RadioFaultInjector(channel, flaps=((0, 100),), factor=0.1)
        with pytest.raises(BluetoothError, match="never recovered"):
            radio.send_with_retry("prover", "witness", "proof", max_attempts=5)

    def test_no_flaps_means_nominal_radio(self, channel):
        radio = RadioFaultInjector(channel, flaps=())
        for index in range(5):
            assert radio.send_with_retry("prover", "witness", f"m{index}") == 1
        assert radio.recovered == 0
        assert channel.range_scale == 1.0
