"""Tests for the workload generator, simulation harness and metrics."""

import pytest

from repro.bench import generate_workload, run_simulation, summarize
from repro.bench.metrics import render_bar_chart, render_table
from repro.bench.workload import THESIS_LOCATIONS


class TestWorkload:
    @pytest.mark.parametrize("users,contracts", [(8, 2), (16, 4), (24, 6), (32, 8)])
    def test_thesis_sweep_sizes(self, users, contracts):
        workload = generate_workload(users)
        assert len(workload) == users
        assert sum(1 for spec in workload if spec.is_creator) == contracts
        assert len({spec.olc for spec in workload}) == contracts

    def test_four_users_per_contract(self):
        workload = generate_workload(16)
        for olc in {spec.olc for spec in workload}:
            assert sum(1 for spec in workload if spec.olc == olc) == 4

    def test_locations_are_the_thesis_codes(self):
        workload = generate_workload(32)
        assert {spec.olc for spec in workload} == set(THESIS_LOCATIONS)

    def test_dids_unique(self):
        workload = generate_workload(32)
        assert len({spec.did for spec in workload}) == 32

    def test_neighbours(self):
        workload = generate_workload(8)
        neighbours = [spec for spec in workload if spec.olc == workload[0].olc]
        assert len(neighbours) == 4
        assert len({spec.did for spec in neighbours}) == 4

    def test_too_many_users_rejected(self):
        with pytest.raises(ValueError):
            generate_workload(64)
        with pytest.raises(ValueError):
            generate_workload(0)


class TestSimulation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation("algorand-testnet", 8, seed=5)

    def test_operation_split(self, result):
        assert len(result.deploys()) == 2
        assert len(result.attaches()) == 6

    def test_transaction_counts_per_family(self, result):
        assert all(t.transactions == 4 for t in result.deploys())
        assert all(t.transactions == 2 for t in result.attaches())

    def test_latencies_positive(self, result):
        assert all(t.latency > 0 for t in result.timings)

    def test_flat_fees_on_avm(self, result):
        # Every attach pays exactly the same flat fees.
        fees = {t.fees for t in result.attaches()}
        assert len(fees) == 1

    def test_seeded_reproducibility(self):
        a = run_simulation("algorand-testnet", 8, seed=9)
        b = run_simulation("algorand-testnet", 8, seed=9)
        assert [t.latency for t in a.timings] == [t.latency for t in b.timings]

    def test_evm_simulation_measures_gas(self):
        result = run_simulation("polygon-mumbai", 8, seed=5)
        assert all(t.gas_used > 0 for t in result.timings)
        assert all(t.transactions == 2 for t in result.timings)


class TestMetrics:
    def test_summarize_stats(self):
        result = run_simulation("algorand-testnet", 8, seed=5)
        stats = summarize("algorand-testnet", "attach", result.attaches())
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.std_dev >= 0
        assert stats.count == 6
        assert stats.total_fees_eur == pytest.approx(stats.total_fees_tokens * 0.26)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize("goerli", "deploy", [])

    def test_render_table_contains_all_rows(self):
        result = run_simulation("algorand-testnet", 8, seed=5)
        stats = summarize("algorand-testnet", "attach", result.attaches())
        table = render_table("T", [stats])
        assert "algorand-testnet" in table
        assert "ALGO" in table

    def test_render_bar_chart(self):
        chart = render_bar_chart("title", [("u1", 10.0), ("u2", 20.0)])
        assert "u1" in chart and "u2" in chart
        assert chart.count("#") > 10

    def test_render_bar_chart_empty(self):
        assert "no data" in render_bar_chart("t", [])
