"""Sim-time telemetry: counters, gauges, histograms and tracing spans.

The thesis's evaluation is entirely about *measured* behaviour --
per-operation latency and fees across three networks -- yet a single
end-to-end number hides everything between submit and confirm: mempool
wait, inclusion, confirmation depth, retry churn.  The recorder gives
every layer of the stack a common sink for that detail, keyed on
**simulated** time (the :class:`~repro.simnet.clock.SimClock` the event
kernel advances), so a trace of a fifteen-simulated-minute run lines up
with the latencies the benchmark reports rather than with host wall
time.

Three instrument kinds, Prometheus-shaped:

- **counters** -- monotone totals (transactions submitted, events
  fired, retries);
- **gauges** -- last-value samples with the full time series retained
  (mempool depth over time, queue depth);
- **histograms** -- bucketed distributions with sum and count (fees
  paid, block utilization, confirmation latency).

Plus **spans**: named intervals on a per-user/per-chain track
(operation ceremonies, submitted->confirmed transaction windows, proof
lifecycle stages), exportable as Chrome trace events
(:mod:`repro.obs.export`).  Every span carries a causal identity --
``trace_id``/``span_id``/``parent_id`` -- assigned from the recorder's
ambient :class:`~repro.obs.context.TraceContext` stack, so one proof's
whole life (BLE exchange, submit, mempool, inclusion, confirmation,
verify, hypercube publish) reconstructs as a single parent-linked
journey (:mod:`repro.obs.analysis`).

Everything is off by default: components fall back to the module-level
:data:`NULL_RECORDER`, whose methods are no-ops, and hot paths guard
their instrumentation behind ``recorder.enabled`` so a disabled run
pays only an attribute read.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter_ns
from typing import Any, Iterator

from repro.obs.context import MUTED_CONTEXT, TraceContext
from repro.obs import prof as _prof

__all__ = [
    "DEFAULT_BUCKETS",
    "RATIO_BUCKETS",
    "MUTED_CONTEXT",
    "MUTED_SPAN",
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "TraceContext",
    "track_for",
]

#: default histogram bucket bounds: one per decade, wide enough for
#: both sub-second latencies and 1e14-base-unit EVM fees.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(10.0**exponent for exponent in range(-2, 15))

#: linear buckets for ratio-shaped metrics (block utilization).
RATIO_BUCKETS: tuple[float, ...] = tuple(round(0.1 * step, 1) for step in range(1, 11))

#: gauge samples kept per series before downsampling kicks in.
MAX_GAUGE_SAMPLES = 100_000

#: finished + open spans kept before new ones are dropped (runaway guard).
MAX_SPANS = 250_000

#: the sample key: metric name + sorted (label, value) pairs.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def track_for(address: str) -> str:
    """The trace track (Chrome ``tid``) of one account's activity.

    Operation spans (Reach ceremonies) and their per-transaction
    sub-spans use the same track so they nest in Perfetto.
    """
    return f"user:{address[:10]}"


def _key(name: str, labels: dict[str, Any]) -> MetricKey:
    return name, tuple(sorted((label, str(value)) for label, value in labels.items()))


class Span:
    """One traced interval on the simulated-time axis.

    Usable as a context manager for synchronous sections, or held open
    across event-queue callbacks and closed with :meth:`end` (the
    submitted->confirmed transaction window, an operation ceremony).

    Causal identity: ``trace_id`` groups every span of one journey,
    ``span_id`` is unique per recorder, ``parent_id`` links to the span
    that was ambient (or explicitly passed) at creation -- ``None``
    marks a trace root.
    """

    __slots__ = (
        "name", "track", "cat", "args", "started_at", "finished_at",
        "trace_id", "span_id", "parent_id", "_recorder",
    )

    def __init__(self, recorder: "Recorder", name: str, track: str, cat: str, args: dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.track = track
        self.cat = cat
        self.args = args
        self.started_at = recorder.now()
        self.finished_at: float | None = None
        self.trace_id = ""
        self.span_id = 0
        self.parent_id: int | None = None

    @property
    def context(self) -> TraceContext:
        """The context children inherit to parent under this span."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def done(self) -> bool:
        """Whether the span has been closed."""
        return self.finished_at is not None

    @property
    def duration(self) -> float:
        """Simulated seconds covered (to *now* while still open)."""
        end = self.finished_at if self.finished_at is not None else self._recorder.now()
        return end - self.started_at

    def end(self, **extra: Any) -> None:
        """Close the span at the current sim time (idempotent)."""
        if self.finished_at is not None:
            return
        if extra:
            self.args.update((label, str(value)) for label, value in extra.items())
        self.finished_at = self._recorder.now()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.end(error=exc_type.__name__)
        else:
            self.end()

    def __repr__(self) -> str:
        state = f"{self.duration:.3f}s" if self.done else "open"
        return f"Span({self.name!r}, track={self.track!r}, {state})"


class _NullSpan:
    """The shared do-nothing span the :class:`NullRecorder` hands out."""

    __slots__ = ()
    name = ""
    track = ""
    cat = ""
    started_at = 0.0
    finished_at: float | None = 0.0
    done = True
    duration = 0.0
    trace_id = ""
    span_id = 0
    parent_id: int | None = None
    context: TraceContext | None = None

    def end(self, **extra: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


class _MutedSpan:
    """The shared span returned for sampled-out journeys.

    Unlike :class:`_NullSpan` its ``context`` is :data:`MUTED_CONTEXT`,
    so every child opened under it (directly, through the ambient stack,
    or across an event-queue / done-callback capture) is muted too.
    ``args`` is a throwaway dict per access: callers may mutate it, but
    nothing is retained.
    """

    __slots__ = ()
    name = ""
    track = ""
    cat = ""
    started_at = 0.0
    finished_at: float | None = 0.0
    done = True
    duration = 0.0
    trace_id = ""
    span_id = -1
    parent_id: int | None = None
    context: TraceContext = MUTED_CONTEXT

    @property
    def args(self) -> dict[str, Any]:
        return {}

    def end(self, **extra: Any) -> None:
        pass

    def __enter__(self) -> "_MutedSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


#: the process-wide muted span; ``span(parent=MUTED_CONTEXT)`` returns it.
MUTED_SPAN = _MutedSpan()


class _NullHandle:
    """Do-nothing instrument handle the :class:`NullRecorder` hands out."""

    __slots__ = ()

    def add(self, value: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, exemplar_trace: str | None = None) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class CounterHandle:
    """A pre-keyed counter: ``add()`` skips per-call label sorting.

    Hot loops (the event kernel, the chain's submit/produce paths) call
    the same ``name{labels}`` sample millions of times per run; resolving
    the :data:`MetricKey` once and reusing it keeps the per-call cost to
    one dict update.
    """

    __slots__ = ("_counters", "_key")

    def __init__(self, recorder: "Recorder", key: MetricKey):
        self._counters = recorder._counters
        self._key = key

    def add(self, value: float = 1.0) -> None:
        counters = self._counters
        key = self._key
        counters[key] = counters.get(key, 0.0) + value


class GaugeHandle:
    """A pre-keyed gauge: ``set()`` with the label work done up front."""

    __slots__ = ("_recorder", "_key", "_name")

    def __init__(self, recorder: "Recorder", key: MetricKey):
        self._recorder = recorder
        self._key = key
        self._name = key[0]

    def set(self, value: float) -> None:
        self._recorder._gauge_set(self._key, self._name, value)


class HistogramHandle:
    """A pre-keyed histogram: ``observe()`` with a cached bucket table."""

    __slots__ = ("_recorder", "_key", "_name", "_buckets")

    def __init__(self, recorder: "Recorder", key: MetricKey, buckets: tuple[float, ...] | None):
        self._recorder = recorder
        self._key = key
        self._name = key[0]
        self._buckets = buckets

    def observe(self, value: float, exemplar_trace: str | None = None) -> None:
        self._recorder._observe_key(self._key, self._name, value, self._buckets, exemplar_trace)


class _Histogram:
    """Bucketed distribution: per-bucket counts plus sum and count.

    ``exemplars`` maps bucket index -> (trace_id, value, sim_time), the
    *last* exemplar-carrying observation that landed in that bucket --
    OpenMetrics keep-last semantics, so a p99 bucket always points at a
    recent concrete journey (allocated lazily; most histograms never
    receive exemplars and pay one None check per observation).
    """

    __slots__ = ("bounds", "counts", "total", "count", "exemplars")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)  # trailing slot: +Inf
        self.total = 0.0
        self.count = 0
        self.exemplars: dict[int, tuple[str, float, float]] | None = None

    def observe(self, value: float, exemplar_trace: str | None = None, sim_time: float = 0.0) -> None:
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if exemplar_trace:
            if self.exemplars is None:
                self.exemplars = {}
            self.exemplars[index] = (exemplar_trace, value, sim_time)

    def cumulative(self) -> Iterator[tuple[float, int]]:
        """(upper-bound, cumulative count) pairs, Prometheus ``le`` style."""
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            yield bound, running
        yield float("inf"), running + self.counts[-1]


class NullRecorder:
    """The always-on disabled recorder: every method is a no-op.

    Components default to the shared :data:`NULL_RECORDER` instance so
    instrumentation call sites never need ``if recorder is not None``
    -- and the hottest paths additionally guard on :attr:`enabled` to
    skip even argument construction.
    """

    enabled = False

    _NULL_SPAN = _NullSpan()
    spans_dropped = 0

    def bind_clock(self, clock: Any) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def current_context(self) -> TraceContext | None:
        return None

    def activate(self, context: TraceContext | None) -> "_NullActivation":
        return _NULL_ACTIVATION

    def counter(self, name: str, value: float = 1.0, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, buckets: tuple[float, ...] | None = None, **labels: Any) -> None:
        pass

    def counter_handle(self, name: str, **labels: Any) -> "_NullHandle":
        return _NULL_HANDLE

    def gauge_handle(self, name: str, **labels: Any) -> "_NullHandle":
        return _NULL_HANDLE

    def histogram_handle(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any,
    ) -> "_NullHandle":
        return _NULL_HANDLE

    def span(
        self, name: str, track: str = "main", cat: str = "span",
        parent: TraceContext | None = None, **args: Any,
    ) -> _NullSpan:
        return self._NULL_SPAN

    def snapshot(self) -> dict[str, Any]:
        return {}

    def render_compact(self, limit: int = 10) -> str:
        return ""


class _NullActivation:
    """The shared no-op context manager ``NullRecorder.activate`` returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


_NULL_ACTIVATION = _NullActivation()


class _Activation:
    """Single-use hand-rolled CM for :meth:`Recorder.activate`."""

    __slots__ = ("_stack", "_context")

    def __init__(self, stack: list, context: "TraceContext | None"):
        self._stack = stack
        self._context = context

    def __enter__(self) -> None:
        if self._context is not None:
            self._stack.append(self._context)
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._context is not None:
            self._stack.pop()

#: the process-wide disabled recorder every component defaults to.
NULL_RECORDER = NullRecorder()


class Recorder(NullRecorder):
    """The live telemetry sink for one simulation run.

    Bound to a sim clock lazily: the first :class:`~repro.simnet.events.EventQueue`
    it is attached to claims it (see :meth:`bind_clock`), so
    ``Recorder()`` can be constructed before the chain exists.  All
    timestamps -- gauge samples, span boundaries -- are simulated
    seconds from that clock.
    """

    enabled = True

    def __init__(self, clock: Any | None = None):
        self.clock = clock
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._gauge_series: dict[MetricKey, list[tuple[float, float]]] = {}
        self._gauge_strides: dict[MetricKey, int] = {}
        self._gauge_ticks: dict[MetricKey, int] = {}
        self._histograms: dict[MetricKey, _Histogram] = {}
        self.spans: list[Span] = []
        self.spans_dropped = 0
        self.spans_sampled_out = 0
        self._context_stack: list[TraceContext] = []
        self._trace_count = 0
        self._span_count = 0
        self._drop_keys: dict[MetricKey, MetricKey] = {}

    # -- clock ----------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Adopt ``clock`` as the time source unless one is already set."""
        if self.clock is None:
            self.clock = clock

    def now(self) -> float:
        """Current simulated time (0.0 until a clock is bound)."""
        return self.clock.now if self.clock is not None else 0.0

    # -- causal context -------------------------------------------------------

    def current_context(self) -> TraceContext | None:
        """The ambient :class:`TraceContext` new spans parent under."""
        return self._context_stack[-1] if self._context_stack else None

    def activate(self, context: TraceContext | None) -> "_Activation":
        """Make ``context`` ambient for the duration of the ``with`` body.

        The propagation primitive: the event kernel and the tx/op
        futures capture a context at scheduling/registration time and
        re-activate it around the continuation, so spans opened inside
        asynchronous callbacks parent into the right trace.  A ``None``
        context is a no-op (disabled runs pay nothing).

        Returns a single-use, hand-rolled context manager: activation
        runs several times per transaction, where the generator-based
        ``@contextmanager`` machinery is measurable overhead.
        """
        return _Activation(self._context_stack, context)

    # -- instruments ----------------------------------------------------------

    def counter(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to the monotone counter ``name{labels}``."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge's last value and append a (sim-time, value) sample.

        The full time series is retained up to :data:`MAX_GAUGE_SAMPLES`
        points; past that the series is stride-downsampled -- every
        other retained sample is discarded, the sampling stride doubles,
        and only every stride-th subsequent call is kept -- so a
        long-running series keeps its overall shape at bounded memory.
        Every sample not retained is counted in
        ``gauge_samples_dropped_total{gauge=<name>,...}`` *carrying the
        series' own labels*, so per-series loss stays distinguishable
        (two chains' queue-depth gauges don't merge into one drop
        count); the last-value read (:meth:`snapshot`) always stays
        exact.
        """
        self._gauge_set(_key(name, labels), name, value)

    def _gauge_set(self, key: MetricKey, name: str, value: float) -> None:
        profiler = _prof.ACTIVE
        if profiler.enabled:
            t0 = perf_counter_ns()
            self._gauge_set_impl(key, name, value)
            profiler.add_flat("obs.recorder", perf_counter_ns() - t0)
            return
        self._gauge_set_impl(key, name, value)

    def _drop_counter_key(self, key: MetricKey, name: str) -> MetricKey:
        """The drop counter's key: the gauge name plus its full label set.

        Built once per series and cached -- the stride-downsampled hot
        path increments this counter on *every* skipped sample.
        """
        cached = self._drop_keys.get(key)
        if cached is None:
            labels = dict(key[1])
            labels["gauge"] = name
            cached = self._drop_keys[key] = _key("gauge_samples_dropped_total", labels)
        return cached

    def _gauge_set_impl(self, key: MetricKey, name: str, value: float) -> None:
        self._gauges[key] = value
        series = self._gauge_series.setdefault(key, [])
        stride = self._gauge_strides.get(key, 1)
        if stride > 1:
            tick = self._gauge_ticks.get(key, 0) + 1
            self._gauge_ticks[key] = tick
            if tick % stride:
                drop_key = self._drop_counter_key(key, name)
                self._counters[drop_key] = self._counters.get(drop_key, 0.0) + 1.0
                return
        series.append((self.now(), value))
        if len(series) >= MAX_GAUGE_SAMPLES:
            before = len(series)
            del series[1::2]  # keep every other sample; shape survives
            self._gauge_strides[key] = stride * 2
            self._gauge_ticks[key] = 0
            drop_key = self._drop_counter_key(key, name)
            self._counters[drop_key] = self._counters.get(drop_key, 0.0) + float(before - len(series))

    def observe(self, name: str, value: float, buckets: tuple[float, ...] | None = None, **labels: Any) -> None:
        """Record ``value`` into the histogram ``name{labels}``.

        Bucket bounds come from the ``buckets`` argument, else
        :data:`DEFAULT_BUCKETS`; they are fixed at first observation.
        """
        self._observe_key(_key(name, labels), name, value, buckets)

    def _observe_key(
        self, key: MetricKey, name: str, value: float, buckets: tuple[float, ...] | None,
        exemplar_trace: str | None = None,
    ) -> None:
        profiler = _prof.ACTIVE
        if profiler.enabled:
            t0 = perf_counter_ns()
            self._observe_impl(key, name, value, buckets, exemplar_trace)
            profiler.add_flat("obs.recorder", perf_counter_ns() - t0)
            return
        self._observe_impl(key, name, value, buckets, exemplar_trace)

    def _observe_impl(
        self, key: MetricKey, name: str, value: float, buckets: tuple[float, ...] | None,
        exemplar_trace: str | None,
    ) -> None:
        histogram = self._histograms.get(key)
        if histogram is None:
            bounds = buckets or DEFAULT_BUCKETS
            histogram = self._histograms[key] = _Histogram(tuple(bounds))
        if exemplar_trace:
            histogram.observe(value, exemplar_trace, self.now())
        else:
            histogram.observe(value)

    def counter_handle(self, name: str, **labels: Any) -> CounterHandle:
        """A pre-keyed handle to the counter ``name{labels}``."""
        return CounterHandle(self, _key(name, labels))

    def gauge_handle(self, name: str, **labels: Any) -> GaugeHandle:
        """A pre-keyed handle to the gauge ``name{labels}``."""
        return GaugeHandle(self, _key(name, labels))

    def histogram_handle(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any,
    ) -> HistogramHandle:
        """A pre-keyed handle to the histogram ``name{labels}``."""
        return HistogramHandle(self, _key(name, labels), buckets)

    def span(
        self, name: str, track: str = "main", cat: str = "span",
        parent: TraceContext | None = None, **args: Any,
    ) -> Span:
        """Open a span starting now; close it with ``end()`` or ``with``.

        The span parents under ``parent`` when given, else under the
        ambient :meth:`current_context`; with neither it roots a fresh
        trace.  Past :data:`MAX_SPANS` new spans are still returned (so
        call sites never branch) but not retained; the loss is counted
        in ``obs_spans_dropped_total`` and surfaced by :meth:`snapshot`
        and the drive() stall report.
        """
        profiler = _prof.ACTIVE
        if not profiler.enabled:
            return self._span_impl(name, track, cat, parent, args)
        t0 = perf_counter_ns()
        span = self._span_impl(name, track, cat, parent, args)
        profiler.add_flat("obs.recorder", perf_counter_ns() - t0)
        return span

    def _span_impl(
        self, name: str, track: str, cat: str, parent: TraceContext | None, args: dict[str, Any],
    ) -> Span:
        if parent is None:
            parent = self.current_context()
        if parent is MUTED_CONTEXT:
            # Sampled-out journey: hand back the shared muted span.  Its
            # context is MUTED_CONTEXT again, so descendants stay muted.
            self.spans_sampled_out += 1
            return MUTED_SPAN  # type: ignore[return-value]
        span = Span(self, name, track, cat, {label: str(value) for label, value in args.items()})
        if parent is None:
            self._trace_count += 1
            span.trace_id = f"t{self._trace_count:06d}"
        else:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        self._span_count += 1
        span.span_id = self._span_count
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.spans_dropped += 1
            self.counter("obs_spans_dropped_total")
        return span

    # -- inspection -----------------------------------------------------------

    def gauge_series(self, name: str, **labels: Any) -> list[tuple[float, float]]:
        """The recorded (sim-time, value) samples of one gauge."""
        return list(self._gauge_series.get(_key(name, labels), ()))

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter (0.0 if never incremented)."""
        return self._counters.get(_key(name, labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of every instrument.

        Sample keys render as ``name{label="value",...}`` -- the same
        identity a Prometheus sample line carries.
        """
        histograms = {}
        for key, histogram in self._histograms.items():
            histograms[_render_key(key)] = {
                "count": histogram.count,
                "sum": histogram.total,
                "buckets": {_format_bound(bound): count for bound, count in histogram.cumulative()},
            }
        return {
            "sim_time": self.now(),
            "counters": {_render_key(key): value for key, value in sorted(self._counters.items())},
            "gauges": {_render_key(key): value for key, value in sorted(self._gauges.items())},
            "histograms": histograms,
            "spans": {
                "total": len(self.spans),
                "open": sum(1 for span in self.spans if not span.done),
                "dropped": self.spans_dropped,
                "sampled_out": self.spans_sampled_out,
            },
        }

    def render_compact(self, limit: int = 10) -> str:
        """A one-line digest for stall reports and log lines."""
        parts = [f"{_render_key(key)}={value:g}" for key, value in sorted(self._counters.items())]
        parts += [f"{_render_key(key)}={value:g}" for key, value in sorted(self._gauges.items())]
        shown = parts[:limit]
        if len(parts) > limit:
            shown.append(f"... {len(parts) - limit} more")
        return ", ".join(shown)


def _render_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    body = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{body}}}"


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return f"{bound:g}"
