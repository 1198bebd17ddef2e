"""Exporters: Chrome trace-event JSON and Prometheus text format.

Two audiences:

- **Chrome trace-event JSON** (``to_chrome_trace``) loads in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``: one named track
  per user and per chain, complete (``"X"``) events for closed spans,
  begin (``"B"``) events for spans still open at export time, and
  counter (``"C"``) tracks for every gauge time series -- mempool
  depth over simulated time sits right above the transaction windows
  that caused it.  Timestamps are simulated **microseconds**.  Every
  span's args carry its ``trace_id``/``span_id``/``parent_id``, and
  parent->child causality is drawn as flow events (``"s"``/``"f"``
  arrows), so one proof's journey reads as a connected chain across
  the prover, chain and verifier tracks.
- **Prometheus text exposition** (``to_prometheus``) for scraping or
  offline diffing.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import Recorder

__all__ = [
    "chrome_trace_json",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_prometheus",
]

_PID = 1  # one simulated process; tracks are threads within it

#: Help texts keyed by metric family name, rendered as ``# HELP`` lines
#: in the Prometheus/OpenMetrics exposition.  Families missing here get
#: a deterministic fallback so the output is still strict OpenMetrics
#: (every family carries HELP + TYPE metadata).
HELP_TEXT: dict[str, str] = {
    "batch_anchored_total": "Merkle batches committed via insert_batch.",
    "batch_insert_fee_max": "Largest fee paid by one insert_batch transaction.",
    "batch_insert_fee_min": "Smallest fee paid by one insert_batch transaction.",
    "batch_insert_gas_max": "Largest gas used by one insert_batch transaction.",
    "batch_insert_gas_min": "Smallest gas used by one insert_batch transaction.",
    "batch_proofs_anchored_total": "Accepted proof records anchored inside batches.",
    "chain_base_fee_wei": "Current EIP-1559 base fee of the simulated chain.",
    "chain_block_interval_seconds": "Observed interval between produced blocks.",
    "chain_confirm_latency_seconds": "Inclusion-to-confirmation latency by depth.",
    "chain_fee_paid_base_units": "Fee paid per settled transaction.",
    "chain_gas_used": "Gas used per settled transaction.",
    "chain_mempool_depth": "Pending transactions in the simulated mempool.",
    "chain_nonce_resyncs_total": "Client nonce resyncs after rejected submissions.",
    "chain_tx_fee_bumped_total": "Stuck transactions replaced with a fee-bumped copy.",
    "chain_tx_included_total": "Transactions included in produced blocks.",
    "chain_tx_rejected_total": "Submissions rejected by the chain or provider.",
    "chain_tx_retries_total": "Rejected submissions that were re-attempted.",
    "chain_tx_submitted_total": "Transactions submitted to the chain.",
    "chain_utilization_ratio": "Block fullness (gas or transaction count ratio).",
    "dht_read_repairs_total": "Replica records healed on the DHT read path.",
    "fault_injected_total": "Faults injected by the chaos plan, by kind.",
    "fault_recovered_total": "Injected faults recovered by the client layer.",
    "light_verify_failed_total": "Batched proofs whose Merkle path failed to verify.",
    "light_verify_total": "Batched proofs light-verified against anchored roots.",
    "radio_send_failures_total": "Bluetooth sends that failed before a retry succeeded.",
    "slo_alert_state": "Current alert state (0 inactive, 1 pending, 2 firing, 3 resolved).",
    "slo_alert_transitions_total": "Alert state-machine transitions, by alert and state.",
    "slo_alerts_fired_total": "Alerts that entered the firing state.",
    "watchtower_violations_total": "Online invariant violations, by invariant.",
}


def to_chrome_trace(recorder: "Recorder") -> dict[str, Any]:
    """Render the recorder as a Chrome trace-event object."""
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": _PID, "name": "process_name", "args": {"name": "repro simulation (sim time)"}},
    ]
    track_ids: dict[str, int] = {}

    def tid(track: str) -> int:
        known = track_ids.get(track)
        if known is None:
            known = track_ids[track] = len(track_ids) + 1
            events.append(
                {"ph": "M", "pid": _PID, "tid": known, "name": "thread_name", "args": {"name": track}}
            )
        return known

    by_id = {span.span_id: span for span in recorder.spans if span.span_id}
    for span in recorder.spans:
        args = dict(span.args)
        if span.trace_id:
            args["trace_id"] = span.trace_id
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
        base = {
            "name": span.name,
            "cat": span.cat or "span",
            "pid": _PID,
            "tid": tid(span.track),
            "ts": int(span.started_at * 1_000_000),
            "args": args,
        }
        if span.finished_at is not None:
            base["ph"] = "X"
            base["dur"] = max(int((span.finished_at - span.started_at) * 1_000_000), 0)
        else:
            base["ph"] = "B"  # still open: Perfetto renders to trace end
        events.append(base)
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            continue
        # A flow arrow per parent->child edge: start ("s") anchored in
        # the parent at the child's start time (clipped into the parent
        # so viewers bind it), finish ("f", bp="e") at the child start.
        flow_ts = int(span.started_at * 1_000_000)
        parent_ts = flow_ts
        if parent.finished_at is not None:
            parent_ts = min(parent_ts, int(parent.finished_at * 1_000_000))
        parent_ts = max(parent_ts, int(parent.started_at * 1_000_000))
        flow = {"cat": "trace", "name": "causal", "pid": _PID, "id": span.span_id}
        events.append({**flow, "ph": "s", "tid": tid(parent.track), "ts": parent_ts})
        events.append({**flow, "ph": "f", "bp": "e", "tid": tid(span.track), "ts": flow_ts})

    for (name, labels), series in recorder._gauge_series.items():
        # Label values land inside the Perfetto counter-track *name*;
        # escape them so a value containing quotes, newlines or braces
        # cannot corrupt the track title (or collide with another).
        label_text = ",".join(f'{label}="{_escape(value)}"' for label, value in labels)
        counter_name = f"{name}{{{label_text}}}" if label_text else name
        for timestamp, value in series:
            events.append(
                {
                    "ph": "C",
                    "pid": _PID,
                    "name": counter_name,
                    "ts": int(timestamp * 1_000_000),
                    "args": {"value": value},
                }
            )

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(recorder: "Recorder") -> str:
    """The trace object serialized for ``--trace`` / Perfetto."""
    return json.dumps(to_chrome_trace(recorder), separators=(",", ":"))


def write_chrome_trace(recorder: "Recorder", path: str) -> None:
    """Write the Chrome trace JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(recorder))


def to_prometheus(recorder: "Recorder") -> str:
    """Render every instrument in the Prometheus text exposition format.

    Strict OpenMetrics shape: every metric family leads with ``# HELP``
    (from :data:`HELP_TEXT`, with a deterministic fallback) and
    ``# TYPE`` metadata, and the exposition ends with ``# EOF``.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            help_text = HELP_TEXT.get(name, f"Simulation metric {name}.")
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

    for (name, labels), value in sorted(recorder._counters.items()):
        type_line(name, "counter")
        lines.append(f"{name}{_label_block(labels)} {_format_value(value)}")

    for (name, labels), value in sorted(recorder._gauges.items()):
        type_line(name, "gauge")
        lines.append(f"{name}{_label_block(labels)} {_format_value(value)}")

    for (name, labels), histogram in sorted(recorder._histograms.items()):
        type_line(name, "histogram")
        exemplars = histogram.exemplars or {}
        for index, (bound, cumulative) in enumerate(histogram.cumulative()):
            le = "+Inf" if bound == float("inf") else f"{bound:g}"
            line = f"{name}_bucket{_label_block(labels, extra=('le', le))} {cumulative}"
            exemplar = exemplars.get(index)
            if exemplar is not None:
                # OpenMetrics exemplar: `# {trace_id="..."} value sim_time`
                # ties this bucket to one concrete replayable journey.
                trace_id, value, sim_time = exemplar
                line += f' # {{trace_id="{_escape(trace_id)}"}} {_format_value(value)} {sim_time:g}'
            lines.append(line)
        lines.append(f"{name}_sum{_label_block(labels)} {_format_value(histogram.total)}")
        lines.append(f"{name}_count{_label_block(labels)} {histogram.count}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_prometheus(recorder: "Recorder", path: str) -> None:
    """Write the Prometheus text exposition to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(recorder))


def _label_block(labels: tuple[tuple[str, str], ...], extra: tuple[str, str] | None = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{label}="{_escape(value)}"' for label, value in pairs)
    return f"{{{body}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP text is unquoted: only backslash and newline need escaping.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
