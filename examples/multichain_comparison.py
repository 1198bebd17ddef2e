"""The headline experiment: ONE contract source, THREE blockchains.

Compiles the Proof-of-Location contract once with the
blockchain-agnostic compiler and checks it with the lint gate, then runs
the thesis's 16-user workload against the calibrated Goerli, Polygon
Mumbai and Algorand testnet simulators -- a miniature chapter 5.

    python examples/multichain_comparison.py
"""

from repro.bench.metrics import render_table, summarize
from repro.bench.simulation import run_simulation
from repro.bench.workload import USERS_PER_CONTRACT
from repro.core.contract import build_pol_program
from repro.reach.compiler import compile_program

NETWORKS = ("goerli", "polygon-mumbai", "algorand-testnet")
USERS = 16


def main() -> None:
    # Compile once: EVM artifact + TEAL artifact, checked by the lint gate.
    compiled = compile_program(build_pol_program(max_users=USERS_PER_CONTRACT, reward=1_000))
    print(compiled.lint_report().banner())
    print(f"\nEVM artifact:  {compiled.evm_code.byte_size()} bytes, "
          f"{len(compiled.evm_code.instrs)} instructions")
    print(f"TEAL artifact: {len(compiled.teal_source.splitlines())} lines of TEAL\n")

    deploy_rows, attach_rows = [], []
    for network in NETWORKS:
        result = run_simulation(network, USERS, seed=1, compiled=compiled)
        deploy_rows.append(summarize(network, "deploy", result.deploys()))
        attach_rows.append(summarize(network, "attach", result.attaches()))

    print(render_table(f"Deploy operation | {USERS} users", deploy_rows))
    print()
    print(render_table(f"Attach operation | {USERS} users", attach_rows))

    algorand = next(r for r in attach_rows if r.network == "algorand-testnet")
    goerli = next(r for r in attach_rows if r.network == "goerli")
    print(
        f"\nAlgorand attaches {goerli.mean / algorand.mean:.1f}x faster than Goerli "
        f"with {goerli.std_dev / max(algorand.std_dev, 0.01):.1f}x less dispersion, "
        f"and costs EUR {algorand.total_fees_eur:.4f} vs EUR {goerli.total_fees_eur:.2f}."
    )

    # Bonus: the same EVM artifact also runs on the third Reach connector,
    # Conflux (Tree-Graph consensus), without recompilation.
    from repro.chain.conflux import ConfluxChain
    from repro.reach.runtime import ReachClient
    from repro.core.contract import pol_record

    conflux = ConfluxChain(profile="conflux-devnet", seed=1, miner_count=4)
    client = ReachClient(conflux)
    creator = conflux.create_account(seed=b"cfx-creator", funding=100 * 10**18)
    deployed = client.deploy(
        compiled, creator, ["7H369F4W+Q8", 1, pol_record("h", "s", creator.address, 1, "c")]
    )
    print(
        f"Conflux (Tree-Graph): deployed the identical artifact at {deployed.ref} "
        f"in {deployed.deploy_result.latency:.1f}s; DAG holds {len(conflux.dag)} blocks "
        f"over a {len(conflux.dag.pivot_chain())}-block pivot chain."
    )


if __name__ == "__main__":
    main()
