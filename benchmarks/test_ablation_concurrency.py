"""Ablation: sequential vs. concurrent attachers.

The thesis's scripts used Python threads, so several users could be in
flight at once; our primary harness is sequential.  This ablation runs
both modes on the same 16-user Goerli workload and quantifies what
concurrency changes: the *campaign* finishes far sooner (attachers
overlap block waits) while *per-user* attach latency stays in the same
band (block capacity is nowhere near saturated by 12 users).
"""

from __future__ import annotations

from conftest import write_output

from repro.bench.metrics import summarize
from repro.bench.simulation import run_simulation

USERS = 16
NETWORK = "goerli"


def run_both():
    sequential = run_simulation(NETWORK, USERS, seed=4)
    concurrent = run_simulation(NETWORK, USERS, seed=4, concurrent=True)
    return sequential, concurrent


def campaign_span(result):
    """Total simulated seconds the attach campaign occupies."""
    return sum(t.latency for t in result.attaches())


def test_ablation_concurrent_attachers(benchmark):
    sequential, concurrent = benchmark.pedantic(run_both, rounds=1, iterations=1)

    seq_stats = summarize(NETWORK, "attach", sequential.attaches())
    con_stats = summarize(NETWORK, "attach", concurrent.attaches())
    sequential_wall = campaign_span(sequential)
    # In the concurrent mode the attachers overlap: the campaign's wall
    # time is bounded by the slowest user, not the sum.
    concurrent_wall = max(t.latency for t in concurrent.attaches())

    lines = [
        f"{'mode':12} {'per-user mean':>14} {'per-user max':>13} {'campaign wall':>14}",
        f"{'sequential':12} {seq_stats.mean:>12.2f}s {seq_stats.maximum:>11.2f}s {sequential_wall:>12.2f}s",
        f"{'concurrent':12} {con_stats.mean:>12.2f}s {con_stats.maximum:>11.2f}s {concurrent_wall:>12.2f}s",
    ]
    write_output("ablation_concurrency.txt", "\n".join(lines))

    # The campaign collapses from a sum of waits to roughly one wait.
    assert concurrent_wall < sequential_wall / 3
    # Per-user latency stays in the same band (no capacity contention).
    assert con_stats.mean < seq_stats.mean * 1.6
    assert con_stats.mean > 5.0
