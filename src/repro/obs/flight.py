"""Flight recorder: a bounded ring of recent telemetry plus post-mortem bundles.

The ring holds the last ``capacity`` entries of three kinds, all stamped
with sim time:

- ``span``: a span *closure* (name, track, trace id, duration, args),
  harvested incrementally from the recorder's span list;
- ``event``: a free-form note pushed by the watchtower or the chain
  service (rejections, fee bumps, fault recoveries, alert edges);
- ``metrics``: the counter deltas observed since the previous poll.

On any invariant violation, firing alert, or uncaught simulation
exception the watchtower calls :meth:`FlightRecorder.dump`, which
freezes the ring together with a recorder snapshot, chain-state
digests, the reconstructed journeys for the implicated trace ids, and
the violation/alert records into a JSON *post-mortem bundle*.  Bundles
are kept in memory (``bundles``) and, when ``out_dir`` is set, written
to ``postmortem-NNN.json`` — a deterministic name, so seeded runs stay
byte-reproducible.  ``repro postmortem <bundle>`` renders them.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any

from .analysis import reconstruct_journeys

BUNDLE_VERSION = 1


class FlightRecorder:
    """Bounded ring buffer over one :class:`~repro.obs.recorder.Recorder`."""

    def __init__(
        self,
        recorder: Any,
        capacity: int = 512,
        out_dir: str | None = None,
        max_bundles: int = 4,
    ):
        self.recorder = recorder
        self.capacity = capacity
        self.out_dir = out_dir
        self.max_bundles = max_bundles
        self.ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.bundles: list[dict[str, Any]] = []
        self.bundle_paths: list[str] = []
        self.dumps_suppressed = 0
        # Harvest cursor over recorder.spans plus a watch list for spans
        # that were still open when the cursor passed them.
        self._span_cursor = 0
        self._open_watch: list[Any] = []
        self._counter_base: dict[Any, float] = {}

    # ------------------------------------------------------------------
    # intake

    def note(self, kind: str, **fields: Any) -> None:
        """Push one free-form event into the ring."""
        entry = {"type": "event", "kind": kind, "t": self.recorder.now()}
        entry.update(fields)
        self.ring.append(entry)

    def poll(self) -> None:
        """Harvest new span closures and counter deltas into the ring."""
        spans = getattr(self.recorder, "spans", None)
        if spans is not None:
            still_open: list[Any] = []
            for span in self._open_watch:
                if span.done:
                    self.ring.append(self._span_entry(span))
                else:
                    still_open.append(span)
            self._open_watch = still_open
            for span in spans[self._span_cursor:]:
                if span.done:
                    self.ring.append(self._span_entry(span))
                else:
                    self._open_watch.append(span)
            self._span_cursor = len(spans)
        counters = getattr(self.recorder, "_counters", None)
        if counters:
            deltas = {}
            for key, value in counters.items():
                delta = value - self._counter_base.get(key, 0.0)
                if delta:
                    deltas[_render_metric_key(key)] = delta
                    self._counter_base[key] = value
            if deltas:
                self.ring.append({"type": "metrics", "t": self.recorder.now(), "deltas": deltas})

    @staticmethod
    def _span_entry(span: Any) -> dict[str, Any]:
        return {
            "type": "span",
            "name": span.name,
            "track": span.track,
            "trace": span.trace_id,
            "t": span.started_at,
            "dur": round(span.finished_at - span.started_at, 9),
            "args": dict(span.args),
        }

    # ------------------------------------------------------------------
    # dumping

    def dump(
        self,
        kind: str,
        detail: str,
        *,
        chains: list[Any] = (),
        trace_ids: list[str] | tuple[str, ...] = (),
        violations: list[Any] = (),
        alerts: dict[str, Any] | None = None,
    ) -> dict[str, Any] | None:
        """Freeze the ring into a post-mortem bundle.

        Returns the bundle dict, or ``None`` when the per-run bundle cap
        was reached (a stuck alert must not fill the disk)."""
        if len(self.bundles) >= self.max_bundles:
            self.dumps_suppressed += 1
            return None
        self.poll()
        implicated = list(dict.fromkeys(trace_ids))
        if not implicated:
            # No explicit suspects: implicate the traces of the most
            # recent span closures in the ring.
            recent = [entry["trace"] for entry in reversed(self.ring) if entry["type"] == "span"]
            implicated = list(dict.fromkeys(trace for trace in recent if trace))[:8]
        bundle = {
            "version": BUNDLE_VERSION,
            "reason": {"kind": kind, "detail": detail, "sim_time": self.recorder.now()},
            "ring": list(self.ring),
            "snapshot": self.recorder.snapshot(),
            "chains": [_chain_digest(chain) for chain in chains],
            "trace_ids": implicated,
            "journeys": self._journeys_for(implicated),
            "violations": [_violation_dict(violation) for violation in violations],
            "alerts": alerts or {},
        }
        self.bundles.append(bundle)
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            path = os.path.join(self.out_dir, f"postmortem-{len(self.bundles):03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, indent=2, sort_keys=True)
                handle.write("\n")
            self.bundle_paths.append(path)
        return bundle

    def _journeys_for(self, trace_ids: list[str]) -> list[dict[str, Any]]:
        """Reconstructed journeys restricted to the implicated traces."""
        wanted = set(trace_ids)
        if not wanted:
            return []
        try:
            report = reconstruct_journeys(self.recorder)
        except Exception:  # a half-broken recorder must not block the dump
            return []
        out = []
        for journey in report.journeys:
            if journey.trace_id not in wanted:
                continue
            out.append(
                {
                    "trace_id": journey.trace_id,
                    "user": journey.root.track,
                    "complete": journey.complete,
                    "duration": round(journey.end_to_end, 9),
                    "problems": list(journey.problems),
                    "stages": {stage: round(dur, 9) for stage, dur in journey.stage_totals().items()},
                    "spans": [
                        {
                            "name": span.name,
                            "start": span.started_at,
                            "end": span.finished_at if span.done else None,
                        }
                        for span in journey.spans
                    ],
                }
            )
        return out


# ----------------------------------------------------------------------
# bundle I/O + rendering (the `repro postmortem` subcommand)


def load_bundle(path: str) -> dict[str, Any]:
    """Read one bundle back from disk."""
    with open(path, encoding="utf-8") as handle:
        bundle = json.load(handle)
    if not isinstance(bundle, dict):
        raise ValueError(f"a bundle is a JSON object, not {type(bundle).__name__}")
    version = bundle.get("version")
    if version != BUNDLE_VERSION:
        raise ValueError(f"unsupported bundle version {version!r} (expected {BUNDLE_VERSION})")
    return bundle


def render_bundle(bundle: dict[str, Any], ring_tail: int = 12) -> str:
    """Human-readable post-mortem for the terminal."""
    reason = bundle["reason"]
    lines = [
        f"post-mortem bundle v{bundle['version']}",
        f"reason: {reason['kind']} at sim t={reason['sim_time']:.3f}s -- {reason['detail']}",
    ]
    for chain in bundle.get("chains", []):
        lines.append(
            "chain {name}: height={height} mempool={mempool_depth} "
            "supply(minted={minted} burned={burned} locked={locked})".format(**chain)
        )
    violations = bundle.get("violations", [])
    if violations:
        lines.append(f"invariant violations ({len(violations)}):")
        for violation in violations:
            lines.append(
                f"  [{violation['invariant']}] {violation['chain']} "
                f"h={violation['height']} t={violation['sim_time']:.3f}s: {violation['detail']}"
            )
    alerts = bundle.get("alerts", {})
    noisy = {name: alert for name, alert in alerts.items() if alert["state"] != "inactive"}
    if noisy:
        lines.append("alerts:")
        for name, alert in sorted(noisy.items()):
            lines.append(
                f"  {name}: {alert['state']} (fired {alert['times_fired']}x, "
                f"last value {alert['last_value']})"
            )
    trace_ids = bundle.get("trace_ids", [])
    lines.append(f"implicated trace ids: {', '.join(trace_ids) if trace_ids else '(none)'}")
    for journey in bundle.get("journeys", []):
        status = "complete" if journey["complete"] else "INCOMPLETE"
        lines.append(f"  journey {journey['trace_id']} user={journey['user']} [{status}]")
        for stage, duration in journey["stages"].items():
            lines.append(f"    {stage:<12} {duration:.3f}s")
    ring = bundle.get("ring", [])
    lines.append(f"flight ring: {len(ring)} entries, last {min(ring_tail, len(ring))}:")
    for entry in ring[-ring_tail:]:
        if entry["type"] == "span":
            lines.append(f"  t={entry['t']:.3f}s span {entry['name']} ({entry['dur']:.3f}s) trace={entry['trace']}")
        elif entry["type"] == "event":
            extras = {k: v for k, v in entry.items() if k not in ("type", "kind", "t")}
            lines.append(f"  t={entry['t']:.3f}s event {entry['kind']} {extras}")
        else:
            lines.append(f"  t={entry['t']:.3f}s metrics {entry['deltas']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# helpers


def _chain_digest(chain: Any) -> dict[str, Any]:
    """A small, JSON-safe digest of one chain's state."""
    digest = {
        "name": getattr(getattr(chain, "profile", None), "name", "?"),
        "height": getattr(chain, "height", None),
        "mempool_depth": getattr(chain, "mempool_depth", None),
        "minted": getattr(chain, "minted_total", 0),
        "burned": getattr(chain, "burned_total", 0),
        "locked": getattr(chain, "locked_total", 0),
    }
    base_fee = getattr(chain, "base_fee", None)
    if base_fee is not None:
        digest["base_fee"] = base_fee
    return digest


def _violation_dict(violation: Any) -> dict[str, Any]:
    if isinstance(violation, dict):
        return violation
    return {
        "invariant": violation.invariant,
        "chain": violation.chain,
        "sim_time": violation.sim_time,
        "height": violation.height,
        "detail": violation.detail,
        "trace_ids": list(violation.trace_ids),
    }


def _render_metric_key(key: Any) -> str:
    name, labels = key
    if not labels:
        return name
    label_text = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{label_text}}}"
