"""The crowdsensing application (thesis section 3.1.2).

The two user-facing tasks: *insert a new report for a specific
location* and *display the valid reports associated with a location*
(figure 3.2's hypercube -> CIDs -> IPFS pipeline), over the
Proof-of-Location system's six-step insertion algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.proof import ProofFailure
from repro.core.system import PolSystemError, ProofOfLocationSystem, SubmissionOutcome
from repro.app.reports import Report, ReportCategory


class AppError(Exception):
    """A user-level application failure."""


@dataclass
class SubmittedReport:
    """Bookkeeping for a filed report."""

    report: Report
    cid: str
    olc: str
    did_uint: int
    submission: SubmissionOutcome
    rewarded: bool = False


@dataclass
class CrowdsensingApp:
    """The environment-reports DApp over a PoL system."""

    system: ProofOfLocationSystem
    submissions: list[SubmittedReport] = field(default_factory=list)

    def file_report(
        self,
        prover_name: str,
        witness_name: str,
        title: str,
        description: str,
        category: ReportCategory = ReportCategory.OTHER,
    ) -> SubmittedReport:
        """The six-step insertion algorithm of section 3.1.2.

        1-3. the prover asks the nearby witness (Bluetooth) for a
             location proof over the report's CID;
        4.   deploy-or-attach the location's smart contract and insert
             the record;
        (5-6 happen in :meth:`review_location` when a verifier runs.)
        """
        prover = self.system.provers.get(prover_name)
        if prover is None:
            raise AppError(f"unknown prover {prover_name!r}")
        report = Report(
            title=title,
            description=description,
            category=category,
            reporter_did=prover.did_uint,
            olc=prover.olc,
            timestamp=self.system.chain.queue.clock.now,
        )
        request, proof, cid = self.system.request_location_proof(
            prover_name, witness_name, report.to_bytes()
        )
        submission = self.system.submit(prover_name, request, proof)
        filed = SubmittedReport(
            report=report,
            cid=cid,
            olc=request.olc,
            did_uint=prover.did_uint,
            submission=submission,
        )
        self.submissions.append(filed)
        return filed

    def review_location(self, verifier_name: str, olc: str) -> dict[int, ProofFailure]:
        """Steps 5-6: a verifier validates every pending record at ``olc``.

        Valid reports are rewarded and their CIDs enter the hypercube;
        invalid ones are left for the timeout to sweep.
        """
        outcomes: dict[int, ProofFailure] = {}
        for filed in self.submissions:
            if filed.olc != olc.upper() or filed.rewarded:
                continue
            try:
                outcome = self.system.verify_and_reward(verifier_name, olc, filed.did_uint)
            except PolSystemError as exc:
                raise AppError(str(exc)) from exc
            outcomes[filed.did_uint] = outcome
            if outcome is ProofFailure.OK:
                filed.rewarded = True
                filed.report.verified = True
        return outcomes

    def display_reports(self, olc: str) -> list[Report]:
        """Figure 3.2: fetch the location's verified reports."""
        payloads = self.system.display_reports(olc)
        return [Report.from_bytes(payload) for payload in payloads]

    def reports_by_category(self, olc: str) -> dict[ReportCategory, list[Report]]:
        """Group a location's verified reports by typology."""
        grouped: dict[ReportCategory, list[Report]] = {}
        for report in self.display_reports(olc):
            grouped.setdefault(report.category, []).append(report)
        return grouped
