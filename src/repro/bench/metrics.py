"""Metrics and table rendering for the chapter-5 comparisons.

:func:`summarize` computes the columns of tables 5.1-5.4: mean, max,
min, standard deviation of the operation latency, total fees in native
tokens, and the EUR conversion at the thesis's measurement-day rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.chain.params import PROFILES
from repro.bench.simulation import UserTiming


@dataclass(frozen=True)
class OperationStats:
    """One row of a chapter-5 table."""

    network: str
    operation: str
    count: int
    mean: float
    maximum: float
    minimum: float
    std_dev: float
    total_fees_base: int
    total_fees_tokens: float
    total_fees_eur: float

    def row(self) -> str:
        """Render in the thesis's table layout."""
        profile = PROFILES[self.network]
        return (
            f"{self.network:18} {self.mean:8.2f}s {self.maximum:8.2f}s {self.minimum:8.2f}s "
            f"{self.std_dev:7.2f}s {self.total_fees_tokens:12.6f} {profile.native_symbol:5} "
            f"EUR {self.total_fees_eur:10.4f}"
        )


def summarize(network: str, operation: str, timings: list[UserTiming]) -> OperationStats:
    """Aggregate one operation class into a table row."""
    if not timings:
        raise ValueError("cannot summarize an empty timing list")
    profile = PROFILES[network]
    latencies = [t.latency for t in timings]
    mean = sum(latencies) / len(latencies)
    variance = sum((x - mean) ** 2 for x in latencies) / len(latencies)
    total_fees = sum(t.fees for t in timings)
    return OperationStats(
        network=network,
        operation=operation,
        count=len(timings),
        mean=mean,
        maximum=max(latencies),
        minimum=min(latencies),
        std_dev=math.sqrt(variance),
        total_fees_base=total_fees,
        total_fees_tokens=profile.to_tokens(total_fees),
        total_fees_eur=profile.to_eur(total_fees),
    )


def render_table(title: str, rows: list[OperationStats]) -> str:
    """Render a full chapter-5-style comparison table."""
    header = (
        f"{'Testnet':18} {'Mean':>9} {'Max':>9} {'Min':>9} {'DevStd':>8} "
        f"{'Fees':>18} {'Euro':>15}"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]
    lines.extend(row.row() for row in rows)
    return "\n".join(lines)


def render_bar_chart(title: str, series: list[tuple[str, float]]) -> str:
    """ASCII per-user bars (the figure 5.2-5.5 shape)."""
    if not series:
        return f"{title}\n(no data)"
    peak = max(value for _, value in series) or 1.0
    lines = [title]
    for label, value in series:
        bar = "#" * max(1, int(value / peak * 50))
        lines.append(f"{label:12} {value:8.2f}s |{bar}")
    return "\n".join(lines)
