"""The chapter-3 use case: an environmental crowdsensing campaign.

A neighbourhood of users reports environmental issues (waste, water
pollution, road damage) around two Bologna locations; an accredited
verifier reviews each area, rewards the truthful reporters, and the
verified reports become publicly browsable by category.

Runs on the Algorand devnet -- the chain the thesis picks for the use
case "since it is considered carbon-negative".

    python examples/environment_reports.py
"""

from repro.chain.algorand import AlgorandChain
from repro.core.system import ProofOfLocationSystem
from repro.app import CrowdsensingApp, ReportCategory

ALGO = 10**6
REWARD = 50_000  # 0.05 ALGO per verified report
PIAZZA = (44.4938, 11.3426)
GIARDINI = (44.4840, 11.3555)


def main() -> None:
    chain = AlgorandChain(profile="algo-devnet", seed=3, participant_count=8)
    system = ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=2)
    app = CrowdsensingApp(system=system)

    # A small crowd: two reporters + one witness per area, one verifier.
    system.register_prover("marta", *PIAZZA, funding=100 * ALGO)
    system.register_prover("luca", *PIAZZA, funding=100 * ALGO)
    system.register_prover("sara", *GIARDINI, funding=100 * ALGO)
    system.register_prover("paolo", *GIARDINI, funding=100 * ALGO)
    system.register_witness("wit-piazza", PIAZZA[0], PIAZZA[1] + 0.0002)
    system.register_witness("wit-giardini", GIARDINI[0], GIARDINI[1] + 0.0002)
    system.register_verifier("comune", funding=1_000 * ALGO)

    # Reports come in.
    filings = [
        app.file_report("marta", "wit-piazza", "Overflowing bins",
                        "Bins not emptied for a week", ReportCategory.WASTE),
        app.file_report("luca", "wit-piazza", "Broken pavement",
                        "Deep hole near the arcade", ReportCategory.ROAD_DAMAGE),
        app.file_report("sara", "wit-giardini", "Oily pond",
                        "Rainbow film on the garden pond", ReportCategory.WATER_POLLUTION),
        app.file_report("paolo", "wit-giardini", "Dumped fridge",
                        "A fridge abandoned by the gate", ReportCategory.WASTE),
    ]
    for filed in filings:
        kind = "deployed" if filed.submission.was_deploy else "attached"
        print(f"{filed.report.title:18} at {filed.olc}  [{kind}, "
              f"{filed.submission.operation.latency:.1f}s]")

    # The comune reviews both areas.
    for olc in sorted({filed.olc for filed in filings}):
        system.fund_contract("comune", olc, REWARD * 2)
        outcomes = app.review_location("comune", olc)
        print(f"review {olc}: {[str(o.value) for o in outcomes.values()]}")

    # Citizens browse verified reports by category (figure 3.2).
    for olc in sorted({filed.olc for filed in filings}):
        print(f"\nVerified reports at {olc}:")
        for category, reports in sorted(app.reports_by_category(olc).items(), key=lambda kv: kv[0].name):
            for report in reports:
                print(f"  [{category.value}] {report.title} -- {report.description}")

    # Reward accounting.
    for name in ("marta", "luca", "sara", "paolo"):
        balance = chain.balance_of(system.accounts[name].address)
        print(f"{name:6} balance: {balance / ALGO:.3f} ALGO")


if __name__ == "__main__":
    main()
