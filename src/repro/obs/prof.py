"""Deterministic stage profiling: where does the kernel's wall-clock go?

The benchmark trajectory (``BENCH_pol.json``) records *that* a 10k-user
campaign took N kernel seconds; this module records *where* those
seconds went.  Instrumented sections of the kernel -- event dispatch,
mempool eligibility scheduling, VM execution, crypto signing and comb
exponentiation, DHT operations, and the recorder's own bookkeeping --
enter and exit named **stages** on a :class:`Profiler`, which attributes
**self time** (elapsed minus time spent in nested stages) on two axes:

- **wall-clock nanoseconds** (``time.perf_counter_ns``) -- the quantity
  perf work optimises and the regression gate (:mod:`repro.obs.regress`)
  watches run over run;
- **simulated seconds** (the bound :class:`~repro.simnet.clock.SimClock`)
  -- so stages that *advance* simulation time (event dispatch) separate
  from stages that merely *compute* (VM execution, crypto).

Two properties the rest of the stack relies on:

- **The profiler accounts for itself.**  Every ``enter``/``exit`` takes
  two clock reads; the bookkeeping time between them is charged to the
  distinct ``obs.profiler`` stage and *excluded* from the enclosing
  stage, so instrumentation cost never masquerades as kernel work.
  Likewise the recorder's hot methods charge their cost to
  ``obs.recorder`` via :meth:`Profiler.add_flat` rather than to whatever
  stage happened to be open (see :mod:`repro.obs.recorder`).
- **Profiling never perturbs the simulation.**  The profiler only reads
  clocks; event ordering, seeded randomness and every simulated result
  are unchanged by profiling.

Besides flat self-times the profiler retains per-*stack-path* totals,
which export as collapsed stacks (``to_collapsed``, Brendan Gregg's
flamegraph.pl / inferno format), a speedscope profile
(``to_speedscope``, https://www.speedscope.app) and a synthetic Chrome
trace icicle (``to_profile_chrome_trace``).

``REPRO_PROF_HANDICAP="stage:+2.0"`` (add seconds) or
``"stage:x3"`` (multiply) inflates one stage's reported wall time at
:meth:`Profiler.profile` time.  It exists solely as the CI perf gate's
self-check -- a synthetic regression that must trip ``repro bench
diff`` -- and is recorded in the profile so a handicapped run is never
mistaken for a real measurement.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns
from typing import Any

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "activate_profiler",
    "get_profiler",
    "to_collapsed",
    "to_profile_chrome_trace",
    "to_speedscope",
    "write_collapsed",
    "write_speedscope",
]

#: the handicap environment variable (CI gate self-check; see module doc).
HANDICAP_ENV = "REPRO_PROF_HANDICAP"


class NullProfiler:
    """The always-on disabled profiler: every method is a no-op.

    Mirrors :class:`repro.obs.recorder.NullRecorder`: components default
    to the shared :data:`NULL_PROFILER` and hot paths guard on
    :attr:`enabled`, so an unprofiled run pays one attribute read per
    would-be stage.
    """

    enabled = False

    def bind_clock(self, clock: Any) -> None:
        pass

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def enter(self, stage: str) -> None:
        pass

    def exit(self) -> None:
        pass

    def add_flat(self, stage: str, wall_ns: int) -> None:
        pass

    def profile(self) -> dict[str, Any]:
        return {}


#: the process-wide disabled profiler every component defaults to.
NULL_PROFILER = NullProfiler()

#: the ambient profiler cross-cutting layers read (crypto, DHT): they
#: have no recorder/queue reference to hang a profiler on, so the run
#: harness activates one here for the duration of a profiled run.  The
#: kernel is single-threaded; this is a plain rebindable module global.
ACTIVE: NullProfiler = NULL_PROFILER


def get_profiler() -> NullProfiler:
    """The ambient profiler (the null profiler outside a profiled run)."""
    return ACTIVE


class _ProfilerActivation:
    """Single-use CM that installs/restores the ambient profiler."""

    __slots__ = ("_profiler", "_previous")

    def __init__(self, profiler: NullProfiler):
        self._profiler = profiler
        self._previous: NullProfiler | None = None

    def __enter__(self) -> NullProfiler:
        global ACTIVE
        self._previous = ACTIVE
        ACTIVE = self._profiler
        return self._profiler

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        global ACTIVE
        ACTIVE = self._previous if self._previous is not None else NULL_PROFILER


def activate_profiler(profiler: NullProfiler) -> _ProfilerActivation:
    """Make ``profiler`` the ambient one for the ``with`` body."""
    return _ProfilerActivation(profiler)


class Profiler(NullProfiler):
    """Self-time stage accounting for one kernel run.

    Strict stack discipline: every :meth:`enter` is balanced by one
    :meth:`exit` (call sites that can raise use ``try/finally``).  A
    frame records its start on both clocks plus the time its *children*
    consumed; at exit the difference is the stage's self time, so stage
    self-times tile the profiled window exactly (plus the explicit
    ``obs.profiler`` overhead and the unattributed remainder).
    """

    enabled = True

    def __init__(self, clock: Any | None = None):
        self.clock = clock
        #: frames: [stage, wall_start, wall_child, sim_start, sim_child, path]
        self._stack: list[list[Any]] = []
        self._wall_ns: dict[str, int] = {}
        self._sim_s: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        #: collapsed-stack totals: path tuple -> self wall ns
        self._paths: dict[tuple[str, ...], int] = {}
        self._overhead_ns = 0
        self._overhead_calls = 0
        self._flat_calls: dict[str, int] = {}
        self._started_ns: int | None = None
        self._started_sim: float = 0.0
        self._total_ns = 0
        self._total_sim = 0.0

    # -- clocks ---------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Adopt ``clock`` for sim-time attribution (first binding wins)."""
        if self.clock is None:
            self.clock = clock

    def _sim_now(self) -> float:
        clock = self.clock
        return clock.now if clock is not None else 0.0

    # -- profiled window ------------------------------------------------------

    def start(self) -> None:
        """Open the profiled window (idempotent; total = start..stop)."""
        if self._started_ns is None:
            self._started_ns = perf_counter_ns()
            self._started_sim = self._sim_now()

    def stop(self) -> None:
        """Close the profiled window, folding it into the totals."""
        if self._started_ns is None:
            return
        self._total_ns += perf_counter_ns() - self._started_ns
        self._total_sim += self._sim_now() - self._started_sim
        self._started_ns = None

    # -- stage accounting -----------------------------------------------------

    def enter(self, stage: str) -> None:
        """Open ``stage``; nested stages subtract from its self time."""
        t0 = perf_counter_ns()
        stack = self._stack
        path = (stack[-1][5] + (stage,)) if stack else (stage,)
        sim = self._sim_now()
        t1 = perf_counter_ns()
        bookkeeping = t1 - t0
        self._overhead_ns += bookkeeping
        self._overhead_calls += 1
        if stack:
            stack[-1][2] += bookkeeping  # parent must not absorb our cost
        stack.append([stage, t1, 0, sim, 0.0, path])

    def exit(self) -> None:
        """Close the innermost stage, attributing its self time."""
        t0 = perf_counter_ns()
        stage, wall_start, wall_child, sim_start, sim_child, path = self._stack.pop()
        wall_elapsed = t0 - wall_start
        self_ns = wall_elapsed - wall_child
        self._wall_ns[stage] = self._wall_ns.get(stage, 0) + self_ns
        self._paths[path] = self._paths.get(path, 0) + self_ns
        self._calls[stage] = self._calls.get(stage, 0) + 1
        sim_elapsed = self._sim_now() - sim_start
        if sim_elapsed:
            self._sim_s[stage] = self._sim_s.get(stage, 0.0) + sim_elapsed - sim_child
        t1 = perf_counter_ns()
        bookkeeping = t1 - t0
        self._overhead_ns += bookkeeping
        self._overhead_calls += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += wall_elapsed + bookkeeping
            parent[4] += sim_elapsed

    def add_flat(self, stage: str, wall_ns: int) -> None:
        """Attribute ``wall_ns`` directly to ``stage`` (no nesting).

        The recorder's hot methods use this to charge their cost to the
        ``obs.recorder`` stage; the enclosing stack frame is credited so
        the caller's self time excludes it -- exactly the "distinct
        stage, not the caller's" rule the overhead stage follows.
        """
        self._wall_ns[stage] = self._wall_ns.get(stage, 0) + wall_ns
        self._paths[(stage,)] = self._paths.get((stage,), 0) + wall_ns
        self._flat_calls[stage] = self._flat_calls.get(stage, 0) + 1
        if self._stack:
            self._stack[-1][2] += wall_ns

    # -- results --------------------------------------------------------------

    def profile(self) -> dict[str, Any]:
        """The JSON-shaped per-stage breakdown of the profiled window.

        ``stages`` maps stage name to self wall seconds, self simulated
        seconds and call count; ``obs.profiler`` appears as its own
        stage carrying the measured enter/exit bookkeeping.  Self times
        plus the unattributed remainder sum to ``total_wall_seconds``
        (within clock resolution) -- the reconciliation the scale tests
        assert.
        """
        if self._started_ns is not None:  # profile() of a still-open window
            now = perf_counter_ns()
            total_ns = self._total_ns + (now - self._started_ns)
            total_sim = self._total_sim + (self._sim_now() - self._started_sim)
        else:
            total_ns = self._total_ns
            total_sim = self._total_sim
        handicap = os.environ.get(HANDICAP_ENV, "")
        stages: dict[str, dict[str, Any]] = {}
        accounted_ns = 0
        for stage in sorted(set(self._wall_ns) | set(self._sim_s)):
            wall_ns = self._wall_ns.get(stage, 0)
            accounted_ns += wall_ns
            wall_s = wall_ns / 1e9
            if handicap:
                wall_s = _apply_handicap(handicap, stage, wall_s)
            stages[stage] = {
                "wall_seconds": round(wall_s, 6),
                "sim_seconds": round(self._sim_s.get(stage, 0.0), 6),
                "calls": self._calls.get(stage, 0) + self._flat_calls.get(stage, 0),
            }
        stages["obs.profiler"] = {
            "wall_seconds": round(self._overhead_ns / 1e9, 6),
            "sim_seconds": 0.0,
            "calls": self._overhead_calls,
        }
        accounted_ns += self._overhead_ns
        unattributed_ns = max(total_ns - accounted_ns, 0)
        overhead_ratio = (self._overhead_ns / total_ns) if total_ns else 0.0
        return {
            "total_wall_seconds": round(total_ns / 1e9, 6),
            "total_sim_seconds": round(total_sim, 6),
            "unattributed_wall_seconds": round(unattributed_ns / 1e9, 6),
            "profiler_overhead_seconds": round(self._overhead_ns / 1e9, 6),
            "profiler_overhead_ratio": round(overhead_ratio, 6),
            "stages": stages,
            "handicap": handicap or None,
        }

    def path_totals(self) -> dict[tuple[str, ...], int]:
        """Self wall ns per stack path (the flamegraph's raw material)."""
        return dict(self._paths)


def _apply_handicap(spec: str, stage: str, wall_s: float) -> float:
    """Apply a ``stage:+secs`` / ``stage:xFACTOR`` handicap to one stage."""
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause or ":" not in clause:
            continue
        name, _, amount = clause.partition(":")
        if name.strip() != stage:
            continue
        amount = amount.strip()
        try:
            if amount.startswith("x"):
                return wall_s * float(amount[1:])
            if amount.startswith("+"):
                return wall_s + float(amount[1:])
        except ValueError:
            continue
    return wall_s


# -- exports -------------------------------------------------------------------


def to_collapsed(profiler: Profiler) -> str:
    """Collapsed-stack lines: ``root;child <self microseconds>``.

    The format flamegraph.pl / inferno / speedscope all ingest; one line
    per unique stack path, weight in integer microseconds.
    """
    lines = []
    for path, self_ns in sorted(profiler.path_totals().items()):
        micros = self_ns // 1_000
        if micros <= 0:
            continue
        lines.append(f"{';'.join(path)} {micros}")
    overhead = profiler._overhead_ns // 1_000
    if overhead > 0:
        lines.append(f"obs.profiler {overhead}")
    return "\n".join(lines) + "\n"


def write_collapsed(profiler: Profiler, path: str) -> None:
    """Write the collapsed-stack flamegraph input to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_collapsed(profiler))


def to_speedscope(profiler: Profiler, name: str = "repro kernel profile") -> dict[str, Any]:
    """A speedscope ``sampled`` profile: one weighted sample per path.

    Open the JSON at https://www.speedscope.app (fully client-side) for
    the interactive flamegraph / sandwich views.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict[str, str]] = []

    def frame(stage: str) -> int:
        known = frame_index.get(stage)
        if known is None:
            known = frame_index[stage] = len(frames)
            frames.append({"name": stage})
        return known

    samples: list[list[int]] = []
    weights: list[int] = []
    paths = dict(profiler.path_totals())
    if profiler._overhead_ns:
        paths[("obs.profiler",)] = paths.get(("obs.profiler",), 0) + profiler._overhead_ns
    for path, self_ns in sorted(paths.items()):
        if self_ns <= 0:
            continue
        samples.append([frame(stage) for stage in path])
        weights.append(self_ns)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro.obs.prof",
        "name": name,
        "activeProfileIndex": 0,
    }


def write_speedscope(profiler: Profiler, path: str, name: str = "repro kernel profile") -> None:
    """Write the speedscope profile JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_speedscope(profiler, name=name), handle, separators=(",", ":"))
        handle.write("\n")


def to_profile_chrome_trace(profiler: Profiler) -> dict[str, Any]:
    """A synthetic Chrome-trace icicle of the aggregated profile.

    Real spans live on the recorder's *simulated* timeline; this export
    instead lays the aggregated stage tree out on a synthetic wall-clock
    axis (each path's subtree occupies a contiguous interval sized by
    its inclusive time), which Perfetto and speedscope both render as a
    flame chart.  Timestamps are microseconds of *attributed* time, not
    moments anything happened.
    """
    paths = profiler.path_totals()
    # Inclusive time of every prefix: self time of the path plus all
    # descendants'.
    inclusive: dict[tuple[str, ...], int] = {}
    for path, self_ns in paths.items():
        for depth in range(1, len(path) + 1):
            prefix = path[:depth]
            inclusive[prefix] = inclusive.get(prefix, 0) + self_ns
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": 1, "name": "process_name", "args": {"name": "repro kernel profile (aggregated)"}},
    ]
    cursors: dict[tuple[str, ...], int] = {(): 0}
    for path in sorted(inclusive):
        parent = path[:-1]
        start = cursors.get(parent, 0)
        duration = inclusive[path] // 1_000
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": path[-1],
                "cat": "profile",
                "ts": start,
                "dur": duration,
                "args": {"self_us": paths.get(path, 0) // 1_000},
            }
        )
        cursors[parent] = start + duration
        cursors[path] = start
    return {"traceEvents": events, "displayTimeUnit": "ms"}
