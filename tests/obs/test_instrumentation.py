"""End-to-end telemetry: the instrumented stack, bench, CLI and stall reports."""

import json

import pytest

from repro.bench.simulation import run_simulation
from repro.chain.base import ChainError, drive
from repro.chain.ethereum import EthereumChain
from repro.obs import Recorder, to_chrome_trace, to_prometheus
from repro.simnet import EventQueue


class TestConcurrentSimulationTelemetry:
    """The acceptance scenario: 16 pipelined users, one recorder."""

    @pytest.fixture(scope="class")
    def run(self):
        recorder = Recorder()
        result = run_simulation("goerli", 16, seed=3, recorder=recorder, concurrent=True)
        return recorder, result

    def test_every_user_has_an_operation_span(self, run):
        recorder, result = run
        spans_by_track = {}
        for span in recorder.spans:
            if span.cat == "op":
                spans_by_track.setdefault(span.track, []).append(span.name)
        # One op span per user (16 tracks), named for its ceremony.
        assert len(spans_by_track) == 16
        operations = [names for names in spans_by_track.values()]
        deploys = sum(1 for names in operations if any(n.startswith("deploy:") for n in names))
        attaches = sum(1 for names in operations if any(n.startswith("attach+call:") for n in names))
        assert deploys == len(result.deploys()) == 4
        assert attaches == len(result.attaches()) == 12

    def test_spans_are_closed_and_match_measured_latency(self, run):
        recorder, result = run
        op_spans = [s for s in recorder.spans if s.cat == "op"]
        assert all(s.done for s in op_spans)
        by_latency = sorted(round(s.duration, 4) for s in op_spans)
        assert by_latency == sorted(round(t.latency, 4) for t in result.timings)

    def test_tx_subspans_share_the_user_track(self, run):
        recorder, _ = run
        op_tracks = {s.track for s in recorder.spans if s.cat == "op"}
        tx_tracks = {s.track for s in recorder.spans if s.cat == "tx"}
        assert tx_tracks == op_tracks

    def test_trace_export_is_valid_and_complete(self, run):
        recorder, _ = run
        trace = json.loads(json.dumps(to_chrome_trace(recorder)))
        events = trace["traceEvents"]
        assert all(e["ph"] in ("M", "X", "B", "C", "s", "f") for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        # 16 op spans + (4 deploys x 2 txs + 12 attaches x 2 txs) tx spans
        assert len(complete) == 16 + 32
        # Causality arrows: every tx span is a child of its op span.
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert len(flows) == 2 * 32

    def test_prometheus_contains_required_series(self, run):
        recorder, _ = run
        text = to_prometheus(recorder)
        assert 'chain_mempool_depth{chain="goerli"}' in text
        assert 'chain_block_utilization_ratio_bucket{chain="goerli",le="+Inf"}' in text
        assert 'chain_fee_paid_base_units_bucket{chain="goerli",le="+Inf"}' in text
        assert 'chain_tx_submitted_total{chain="goerli",kind="call"}' in text
        assert "sim_events_fired_total" in text

    def test_mempool_depth_series_moves_over_sim_time(self, run):
        recorder, _ = run
        series = recorder.gauge_series("chain_mempool_depth", chain="goerli")
        assert len(series) > 10
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert any(depth > 0 for _, depth in series)

    def test_result_carries_the_snapshot(self, run):
        _, result = run
        assert result.metrics is not None
        assert result.metrics["counters"]['chain_blocks_total{chain="goerli"}'] > 0


class TestSerialParity:
    def test_recorder_does_not_perturb_measurements(self):
        baseline = run_simulation("goerli", 6, seed=5)
        instrumented = run_simulation("goerli", 6, seed=5, recorder=Recorder())
        assert baseline.to_csv() == instrumented.to_csv()
        assert baseline.metrics is None
        assert instrumented.metrics is not None

    def test_avm_family_instrumented_too(self):
        recorder = Recorder()
        run_simulation("algorand-testnet", 4, seed=2, recorder=recorder)
        text = to_prometheus(recorder)
        assert 'chain_tx_submitted_total{chain="algorand-testnet",kind="create"}' in text
        assert 'chain_block_utilization_ratio_count{chain="algorand-testnet"}' in text


class TestProofLifecycleSpans:
    def test_request_submit_verify_spans(self):
        from repro.core.system import ProofOfLocationSystem

        recorder = Recorder()
        chain = EthereumChain(
            profile="eth-devnet", queue=EventQueue(recorder=recorder), seed=11, validator_count=4
        )
        system = ProofOfLocationSystem(chain=chain, reward=10_000, max_users=2)
        system.register_prover("anna", 44.4949, 11.3426, funding=10**18)
        system.register_prover("bruno", 44.4949, 11.3426, funding=10**18)
        system.register_witness("walter", 44.4949, 11.3428)
        system.register_verifier("vera", funding=10**18)
        # Anna deploys, Bruno fills the last seat -> the verify phase opens.
        for prover in ("anna", "bruno"):
            request, proof, _ = system.request_location_proof(prover, "walter", b"report")
            system.submit(prover, request, proof)
        olc = system.provers["anna"].olc
        system.fund_contract("vera", olc, 20_000)
        system.verify_and_reward("vera", olc, system.provers["anna"].did_uint)

        names = {span.name for span in recorder.spans}
        assert {"proof:request", "proof:submit", "proof:verify"} <= names
        lifecycle = [s for s in recorder.spans if s.cat == "proof"]
        assert all(s.done for s in lifecycle)
        submit = next(s for s in lifecycle if s.name == "proof:submit")
        assert submit.args["was_deploy"] == "True"
        assert submit.duration > 0
        verify = next(s for s in lifecycle if s.name == "proof:verify")
        assert verify.track == "verifier:vera"
        assert verify.duration > 0  # covers the on-chain verify call


class TestServiceCounters:
    def test_nonce_resync_counted(self):
        from repro.chain.service import ChainService

        recorder = Recorder()
        chain = EthereumChain(
            profile="eth-devnet", queue=EventQueue(recorder=recorder), seed=1, validator_count=4
        )
        service = ChainService(chain)
        account = chain.create_account(funding=10**18)
        account.nonce = 99  # desynced client state
        service.resync_nonce(account)
        assert recorder.counter_value("chain_nonce_resyncs_total", chain="eth-devnet") == 1.0

    def test_rejection_counted_and_reraised(self):
        from repro.chain.base import InvalidTransaction
        from repro.chain.service import ChainService

        recorder = Recorder()
        chain = EthereumChain(
            profile="eth-devnet", queue=EventQueue(recorder=recorder), seed=1, validator_count=4
        )
        service = ChainService(chain)
        stranger = chain.create_account(funding=10**18)
        tx = service.build(stranger, "transfer", to=stranger.address, value=1)
        chain.known_keys.pop(stranger.address)  # the chain forgets the key
        with pytest.raises(InvalidTransaction):
            service.submit(stranger, tx)
        assert recorder.counter_value("chain_tx_rejected_total", chain="eth-devnet") >= 1.0


class TestStallReportMetrics:
    def test_stall_report_embeds_metrics_snapshot(self):
        recorder = Recorder()
        queue = EventQueue(recorder=recorder)
        recorder.counter("chain_tx_submitted_total", chain="goerli", kind="call")
        with pytest.raises(ChainError, match=r"metrics: .*chain_tx_submitted_total"):
            drive(queue, lambda: False)

    def test_uninstrumented_stall_report_unchanged(self):
        queue = EventQueue()
        with pytest.raises(ChainError) as failure:
            drive(queue, lambda: False)
        assert "metrics:" not in str(failure.value)


class TestCli:
    def test_simulate_writes_parseable_trace_and_metrics(self, tmp_path):
        from repro.__main__ import main

        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.prom"
        code = main(
            [
                "simulate", "goerli", "4", "--seed", "1",
                "--trace", str(trace_path), "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])
        text = metrics_path.read_text()
        assert "# TYPE chain_fee_paid_base_units histogram" in text

    def test_simulate_concurrent_flag(self, tmp_path):
        from repro.__main__ import main

        trace_path = tmp_path / "run.trace.json"
        code = main(["simulate", "eth-devnet", "4", "--concurrent", "--trace", str(trace_path)])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert any(name.startswith("attach+call:") for name in names)
