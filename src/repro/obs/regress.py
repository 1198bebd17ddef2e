"""Append-only benchmark history and the noise-aware perf-regression gate.

``BENCH_pol.json`` used to hold a single sweep; this module turns it
into an **append-only multi-run history** so the benchmark trajectory
(the paper's Fig 5.x axis, the ROADMAP's north star) accumulates across
commits instead of being overwritten, and gives ``repro bench diff``
the data to answer the question every perf PR must face: *did this
change give the speedup back?*

Comparison is deliberately two-tier, because the two measurement axes
have entirely different noise characteristics:

- **Simulated metrics** (end-to-end p50/p95/p99, stage sim-time, fee
  totals, journey counts) are *deterministic*: same seed, same code →
  bit-identical values on any host.  They gate at a near-zero tolerance
  (default 0.1%); a drift here is a semantic change, not noise.
- **Wall-clock metrics** (kernel seconds, per-stage profile self time)
  are noisy -- CI runners, thermal state, CPU contention.  They gate at
  a generous relative threshold (default +100%: only a >2x slowdown
  trips) with an absolute floor (default 0.25 s) so millisecond stages
  can't trip on scheduler jitter; contended runners show spurious
  +50-80% swings on identical code, so anything tighter gates noise.  When the two runs come from **different hosts** (compared by
  the host fingerprint in run metadata), wall-clock comparisons degrade
  to informational findings that never fail the gate -- cross-machine
  wall-clock deltas measure the hardware, not the PR.

Every appended run carries metadata (git sha, seed, user counts,
sample strides, host fingerprint) so a regression report can always say
*which* two measurements it compared.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "Finding",
    "Thresholds",
    "append_run",
    "diff_runs",
    "host_fingerprint",
    "git_sha",
    "load_history",
    "render_findings",
    "run_meta",
]

#: current on-disk schema of the BENCH history file.
HISTORY_VERSION = 2


@dataclass(frozen=True)
class Thresholds:
    """Gate thresholds; all overridable from the ``bench diff`` CLI."""

    #: relative slowdown tolerated on wall-clock metrics (1.0 = +100%,
    #: i.e. only a more-than-2x slowdown trips).
    wall_pct: float = 1.0
    #: absolute wall-clock floor in seconds: deltas under this never
    #: trip, regardless of percentage (guards millisecond stages).
    wall_floor_s: float = 0.25
    #: relative tolerance on deterministic simulated metrics.
    sim_pct: float = 0.001


@dataclass(frozen=True)
class Finding:
    """One compared metric that moved beyond its threshold."""

    severity: str  # "fail" | "info"
    family: str
    users: int
    metric: str
    before: float
    after: float

    @property
    def delta_pct(self) -> float:
        if self.before == 0:
            return float("inf") if self.after else 0.0
        return (self.after - self.before) / self.before * 100.0


# -- run metadata --------------------------------------------------------------


def git_sha() -> str:
    """The current git commit sha, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            timeout=10,
            check=True,
        )
        return out.stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
        return "unknown"


def host_fingerprint() -> str:
    """A stable same-machine identifier for wall-clock comparability.

    Two runs gate on wall-clock only when their fingerprints match; the
    fingerprint deliberately excludes anything volatile (load, time).
    """
    return f"{platform.node()}/{platform.machine()}/{platform.system()}"


def run_meta(seed: int, users: list[int], networks: list[str]) -> dict[str, Any]:
    """The metadata block attached to every appended run."""
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "users": list(users),
        "networks": list(networks),
        "host": host_fingerprint(),
    }


# -- history file --------------------------------------------------------------


def load_history(path: str | Path) -> dict[str, Any]:
    """Load ``path`` as a v2 history, migrating legacy payloads.

    A missing or empty file yields an empty history.  A v1 payload (the
    pre-history single-sweep shape with top-level ``families``) is
    wrapped as the history's first run with placeholder metadata.  A
    JSON top level that is not an object raises ``ValueError``, as
    malformed JSON does.
    """
    path = Path(path)
    if not path.exists():
        return {"version": HISTORY_VERSION, "benchmark": "proof-of-location sweep", "runs": []}
    raw = path.read_text(encoding="utf-8").strip()
    if not raw:
        return {"version": HISTORY_VERSION, "benchmark": "proof-of-location sweep", "runs": []}
    payload = json.loads(raw)
    if not isinstance(payload, dict):
        raise ValueError(f"a history is a JSON object, not {type(payload).__name__}")
    if payload.get("version") == HISTORY_VERSION and isinstance(payload.get("runs"), list):
        return payload
    # v1 migration: one run, metadata reconstructed where possible.
    run = {
        "meta": {
            "git_sha": payload.get("git_sha", "unknown"),
            "seed": payload.get("seed", 0),
            "users": payload.get("users", []),
            "networks": payload.get("networks", []),
            "host": payload.get("host", "unknown"),
        },
        "families": payload.get("families", {}),
    }
    return {
        "version": HISTORY_VERSION,
        "benchmark": payload.get("benchmark", "proof-of-location sweep"),
        "runs": [run] if run["families"] else [],
    }


def append_run(
    path: str | Path,
    meta: dict[str, Any],
    families: dict[str, Any],
    max_runs: int = 50,
) -> dict[str, Any]:
    """Append one run to the history at ``path`` and write it back.

    Keeps at most ``max_runs`` most-recent runs so the committed file
    stays reviewable; returns the updated history.
    """
    history = load_history(path)
    history["runs"].append({"meta": meta, "families": families})
    if len(history["runs"]) > max_runs:
        history["runs"] = history["runs"][-max_runs:]
    Path(path).write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return history


# -- diffing -------------------------------------------------------------------


def _points(run: dict[str, Any]) -> dict[tuple[str, int, int], dict[str, Any]]:
    """Index a run's points by (family, users, batch_size).

    Points recorded before the batching layer carry no ``batch_size``
    and default to 1 (the unbatched campaign), so old and new histories
    keep intersecting on their unbatched points.
    """
    index: dict[tuple[str, int, int], dict[str, Any]] = {}
    for family, entry in run.get("families", {}).items():
        for point in entry.get("points", []):
            key = (family, int(point["users"]), int(point.get("batch_size", 1)))
            index[key] = point
    return index


@dataclass
class _Diff:
    """Accumulates findings for one run-over-run comparison."""

    thresholds: Thresholds
    same_host: bool
    findings: list[Finding] = field(default_factory=list)
    compared: int = 0

    def wall(self, family: str, users: int, metric: str, before: float, after: float) -> None:
        """Compare a wall-clock metric (noisy; pct + floor; host-gated)."""
        self.compared += 1
        delta = after - before
        if delta <= self.thresholds.wall_floor_s:
            return
        if before <= 0 or delta / before <= self.thresholds.wall_pct:
            return
        severity = "fail" if self.same_host else "info"
        self.findings.append(Finding(severity, family, users, metric, before, after))

    def sim(
        self, family: str, users: int, metric: str, before: float, after: float, pct: float
    ) -> None:
        """Compare a deterministic simulated metric (tight tolerance)."""
        self.compared += 1
        if before == after:
            return
        base = abs(before) if before else 1.0
        if abs(after - before) / base <= pct:
            return
        self.findings.append(Finding("fail", family, users, metric, before, after))


def diff_runs(
    before: dict[str, Any],
    after: dict[str, Any],
    thresholds: Thresholds | None = None,
) -> tuple[list[Finding], int]:
    """Compare two runs; returns ``(findings, metrics_compared)``.

    Only (family, users, batch_size) points present in **both** runs are
    compared -- a sweep that added a new scale point is growth, not
    regression.  Batched points' metric names carry a ``[batch=N]``
    suffix so a finding always says which campaign regressed.
    """
    thresholds = thresholds or Thresholds()
    host_before = before.get("meta", {}).get("host", "unknown")
    host_after = after.get("meta", {}).get("host", "unknown")
    same_host = host_before == host_after and host_before != "unknown"
    diff = _Diff(thresholds=thresholds, same_host=same_host)
    points_before = _points(before)
    points_after = _points(after)
    for key in sorted(set(points_before) & set(points_after)):
        family, users, batch = key
        suffix = f" [batch={batch}]" if batch != 1 else ""
        a, b = points_before[key], points_after[key]
        diff.wall(family, users, f"kernel_seconds{suffix}", a.get("kernel_seconds", 0.0), b.get("kernel_seconds", 0.0))
        stages_a = (a.get("profile") or {}).get("stages", {})
        stages_b = (b.get("profile") or {}).get("stages", {})
        for stage in sorted(set(stages_a) & set(stages_b)):
            diff.wall(
                family,
                users,
                f"profile.{stage}.wall_seconds{suffix}",
                stages_a[stage].get("wall_seconds", 0.0),
                stages_b[stage].get("wall_seconds", 0.0),
            )
        e2e_a = a.get("end_to_end_seconds") or {}
        e2e_b = b.get("end_to_end_seconds") or {}
        for quantile in ("p50", "p95", "p99"):
            if quantile in e2e_a and quantile in e2e_b:
                diff.sim(
                    family, users, f"end_to_end.{quantile}{suffix}",
                    e2e_a[quantile], e2e_b[quantile], thresholds.sim_pct,
                )
        if "fees_base_units_total" in a and "fees_base_units_total" in b:
            diff.sim(
                family, users, f"fees_base_units_total{suffix}",
                a["fees_base_units_total"], b["fees_base_units_total"], thresholds.sim_pct,
            )
        if "journeys" in a and "journeys" in b:
            diff.sim(family, users, f"journeys{suffix}", a["journeys"], b["journeys"], 0.0)
    return diff.findings, diff.compared


def render_findings(
    findings: list[Finding],
    compared: int,
    before_meta: dict[str, Any],
    after_meta: dict[str, Any],
) -> str:
    """Human-readable diff report (the ``repro bench diff`` output)."""
    lines = [
        "benchmark diff",
        f"  before: sha={before_meta.get('git_sha', '?')[:12]} host={before_meta.get('host', '?')}",
        f"  after:  sha={after_meta.get('git_sha', '?')[:12]} host={after_meta.get('host', '?')}",
        f"  metrics compared: {compared}",
    ]
    if not findings:
        lines.append("  no regressions beyond thresholds")
        return "\n".join(lines)
    same_host = before_meta.get("host") == after_meta.get("host")
    if not same_host:
        lines.append("  (different hosts: wall-clock findings are informational only)")
    header = f"  {'severity':<8} {'family':<6} {'users':>6}  {'metric':<34} {'before':>12} {'after':>12} {'delta':>9}"
    lines.append(header)
    for finding in findings:
        lines.append(
            f"  {finding.severity:<8} {finding.family:<6} {finding.users:>6}  "
            f"{finding.metric:<34} {finding.before:>12.4f} {finding.after:>12.4f} "
            f"{finding.delta_pct:>+8.1f}%"
        )
    return "\n".join(lines)
