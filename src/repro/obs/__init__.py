"""Sim-time observability: recorder, instruments and exporters.

Attach a :class:`Recorder` to an event queue (or pass one to
``make_chain`` / the bench runners) and every instrumented layer --
the event kernel, the chains, the Reach runtime, the PoL core --
reports into it on the simulated clock.  Export with
:func:`write_chrome_trace` (open in Perfetto) or
:func:`write_prometheus`; the :data:`NULL_RECORDER` default keeps
disabled runs at near-zero overhead.
"""

from repro.obs.recorder import (
    DEFAULT_BUCKETS,
    MUTED_CONTEXT,
    NULL_RECORDER,
    RATIO_BUCKETS,
    NullRecorder,
    Recorder,
    Span,
    TraceContext,
    track_for,
)
from repro.obs.analysis import (
    Journey,
    JourneyReport,
    Stage,
    bench_summary,
    histogram_exemplars,
    reconstruct_journeys,
    render_report,
    stage_statistics,
    validate_journeys,
)
from repro.obs.export import (
    HELP_TEXT,
    chrome_trace_json,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.monitor import (
    NULL_WATCHTOWER,
    InvariantViolation,
    NullWatchtower,
    Watchtower,
)
from repro.obs.slo import SloEngine, SloRule, default_rules
from repro.obs.flight import FlightRecorder, load_bundle, render_bundle
from repro.obs.prof import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    activate_profiler,
    to_speedscope,
    write_speedscope,
)
from repro.obs.regress import (
    Thresholds,
    append_run,
    diff_runs,
    load_history,
    render_findings,
    run_meta,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "MUTED_CONTEXT",
    "RATIO_BUCKETS",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "TraceContext",
    "track_for",
    "Journey",
    "JourneyReport",
    "Stage",
    "bench_summary",
    "histogram_exemplars",
    "reconstruct_journeys",
    "render_report",
    "stage_statistics",
    "validate_journeys",
    "HELP_TEXT",
    "chrome_trace_json",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_prometheus",
    "NULL_WATCHTOWER",
    "InvariantViolation",
    "NullWatchtower",
    "Watchtower",
    "SloEngine",
    "SloRule",
    "default_rules",
    "FlightRecorder",
    "load_bundle",
    "render_bundle",
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "activate_profiler",
    "to_speedscope",
    "write_speedscope",
    "Thresholds",
    "append_run",
    "diff_runs",
    "load_history",
    "render_findings",
    "run_meta",
]
