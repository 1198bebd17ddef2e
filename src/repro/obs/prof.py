"""Deterministic stage profiling: where does the kernel's wall-clock go?

The benchmark trajectory (``BENCH_pol.json``) records *that* a 10k-user
campaign took N kernel seconds; this module records *where* those
seconds went.  Instrumented sections of the kernel -- event dispatch,
mempool eligibility scheduling, VM execution, chain admission and the
client session, crypto signing and comb exponentiation, DHT operations,
and the recorder's own bookkeeping -- enter and exit named **stages**
on a :class:`Profiler`, which attributes **self time** (elapsed minus
time spent in nested stages) on two axes:

- **wall-clock nanoseconds** (``time.perf_counter_ns``) -- the quantity
  perf work optimises and the regression gate (:mod:`repro.obs.regress`)
  watches run over run;
- **simulated seconds** (the bound :class:`~repro.simnet.clock.SimClock`)
  -- so stages that *advance* simulation time (event dispatch) separate
  from stages that merely *compute* (VM execution, crypto).

There is one seam: every layer reads the ambient :data:`ACTIVE`
profiler, which the run harness installs with :func:`activate_profiler`
for the profiled window.  A whole function becomes a stage through the
:func:`staged` decorator; the few sites that stage only part of a
function (the dispatch loop, block production) or charge a flat cost
(the recorder) read :data:`ACTIVE` directly.

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
which export as one format: a speedscope profile (``to_speedscope``,
https://www.speedscope.app), whose flamegraph, left-heavy and sandwich
views cover what collapsed stacks and icicles would show.

``REPRO_PROF_HANDICAP="stage:+2.0"`` (add seconds) or
``"stage:x3"`` (multiply) inflates one stage's reported wall time at
:meth:`Profiler.profile` time.  It exists solely as the CI perf gate's
self-check -- a synthetic regression that must trip ``repro bench
diff`` -- and is recorded in the profile so a handicapped run is never
mistaken for a real measurement.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter_ns
from typing import Any, Callable, TypeVar

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "activate_profiler",
    "staged",
    "to_speedscope",
    "write_speedscope",
]

_F = TypeVar("_F", bound=Callable[..., Any])

#: the handicap environment variable (CI gate self-check; see module doc).
HANDICAP_ENV = "REPRO_PROF_HANDICAP"


class NullProfiler:
    """The always-on disabled profiler: every method is a no-op.

    Mirrors :class:`repro.obs.recorder.NullRecorder`: :data:`ACTIVE`
    defaults to the shared :data:`NULL_PROFILER` and stages guard on
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


#: the process-wide disabled profiler :data:`ACTIVE` defaults to.
NULL_PROFILER = NullProfiler()

#: the ambient profiler every stage reads: the run harness activates one
#: here for the duration of a profiled run.  The kernel is
#: single-threaded; this is a plain rebindable module global.
ACTIVE: NullProfiler = NULL_PROFILER


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


def staged(stage: str) -> Callable[[_F], _F]:
    """Run the decorated function as ``stage`` of the ambient profiler.

    With profiling off the call goes straight through after one
    attribute read; an exception still closes the stage, so the stack
    stays balanced.
    """

    def decorate(func: _F) -> _F:
        @functools.wraps(func)
        def run(*args: Any, **kwargs: Any) -> Any:
            profiler = ACTIVE
            if not profiler.enabled:
                return func(*args, **kwargs)
            profiler.enter(stage)
            try:
                return func(*args, **kwargs)
            finally:
                profiler.exit()

        return run  # type: ignore[return-value]

    return decorate


class _Node:
    """One stack path of the calling-context tree: its stage and totals."""

    __slots__ = ("stage", "parent", "children", "wall_ns", "sim_s", "calls", "flat_calls")

    def __init__(self, stage: str, parent: "_Node | None") -> None:
        self.stage = stage
        self.parent = parent
        self.children: dict[str, _Node] = {}
        self.wall_ns = 0
        self.sim_s = 0.0
        self.calls = 0
        self.flat_calls = 0

    def path(self) -> tuple[str, ...]:
        stages = []
        node: _Node | None = self
        while node is not None and node.parent is not None:
            stages.append(node.stage)
            node = node.parent
        return tuple(reversed(stages))


class _NoClock:
    """The sim clock of a profiler no queue has bound: time stands still."""

    now = 0.0


_NO_CLOCK = _NoClock()


class Profiler(NullProfiler):
    """Self-time stage accounting for one kernel run.

    Strict stack discipline: every :meth:`enter` is balanced by one
    :meth:`exit` (call sites that can raise use ``try/finally``).  A
    frame records its start on both clocks plus the time its *children*
    consumed; at exit the difference is the stage's self time, so stage
    self-times tile the profiled window exactly (plus the explicit
    ``obs.profiler`` overhead and the unattributed remainder).

    Totals accrue on the frame's node in a calling-context tree, one
    node per stack path, found by one dict read at enter; per-stage
    totals and path totals are summed from the tree when read.
    """

    enabled = True

    def __init__(self, clock: Any | None = None):
        self.clock = clock if clock is not None else _NO_CLOCK
        #: frames: [node, wall_start, wall_child, sim_start, sim_child]
        self._stack: list[list[Any]] = []
        self._root = _Node("", None)
        self._overhead_ns = 0
        self._overhead_calls = 0
        self._started_ns: int | None = None
        self._started_sim: float = 0.0
        self._total_ns = 0
        self._total_sim = 0.0

    # -- clocks ---------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Adopt ``clock`` for sim-time attribution (first binding wins)."""
        if self.clock is _NO_CLOCK:
            self.clock = clock

    # -- profiled window ------------------------------------------------------

    def start(self) -> None:
        """Open the profiled window (idempotent; total = start..stop)."""
        if self._started_ns is None:
            self._started_ns = perf_counter_ns()
            self._started_sim = self.clock.now

    def stop(self) -> None:
        """Close the profiled window, folding it into the totals."""
        if self._started_ns is None:
            return
        self._total_ns += perf_counter_ns() - self._started_ns
        self._total_sim += self.clock.now - self._started_sim
        self._started_ns = None

    # -- stage accounting -----------------------------------------------------

    def enter(self, stage: str) -> None:
        """Open ``stage``; nested stages subtract from its self time."""
        t0 = perf_counter_ns()
        stack = self._stack
        parent = stack[-1][0] if stack else self._root
        node = parent.children.get(stage)
        if node is None:
            node = parent.children[stage] = _Node(stage, parent)
        sim = self.clock.now
        t1 = perf_counter_ns()
        bookkeeping = t1 - t0
        self._overhead_ns += bookkeeping
        if stack:
            stack[-1][2] += bookkeeping  # parent must not absorb our cost
        stack.append([node, t1, 0, sim, 0.0])

    def exit(self) -> None:
        """Close the innermost stage, attributing its self time."""
        t0 = perf_counter_ns()
        stack = self._stack
        node, wall_start, wall_child, sim_start, sim_child = stack.pop()
        wall_elapsed = t0 - wall_start
        node.wall_ns += wall_elapsed - wall_child
        node.calls += 1
        sim_elapsed = self.clock.now - sim_start
        if sim_elapsed:
            node.sim_s += sim_elapsed - sim_child
        t1 = perf_counter_ns()
        bookkeeping = t1 - t0
        self._overhead_ns += bookkeeping
        self._overhead_calls += 2  # this exit and its enter
        if stack:
            parent = stack[-1]
            parent[2] += wall_elapsed + bookkeeping
            parent[4] += sim_elapsed

    def add_flat(self, stage: str, wall_ns: int) -> None:
        """Attribute ``wall_ns`` directly to ``stage`` (no nesting).

        The recorder's hot methods use this to charge their cost to the
        ``obs.recorder`` stage; the enclosing stack frame is credited so
        the caller's self time excludes it -- exactly the "distinct
        stage, not the caller's" rule the overhead stage follows.
        """
        root = self._root
        node = root.children.get(stage)
        if node is None:
            node = root.children[stage] = _Node(stage, root)
        node.wall_ns += wall_ns
        node.flat_calls += 1
        if self._stack:
            self._stack[-1][2] += wall_ns

    def _nodes(self) -> list[_Node]:
        """Every node that closed a stage or took a flat cost."""
        found = []
        pending = list(self._root.children.values())
        while pending:
            node = pending.pop()
            if node.calls or node.flat_calls:
                found.append(node)
            pending.extend(node.children.values())
        return found

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
            total_sim = self._total_sim + (self.clock.now - self._started_sim)
        else:
            total_ns = self._total_ns
            total_sim = self._total_sim
        handicap = os.environ.get(HANDICAP_ENV, "")
        totals: dict[str, list[Any]] = {}
        for node in self._nodes():
            row = totals.setdefault(node.stage, [0, 0.0, 0])
            row[0] += node.wall_ns
            row[1] += node.sim_s
            row[2] += node.calls + node.flat_calls
        stages: dict[str, dict[str, Any]] = {}
        accounted_ns = 0
        for stage in sorted(totals):
            wall_ns, sim_s, calls = totals[stage]
            accounted_ns += wall_ns
            wall_s = wall_ns / 1e9
            if handicap:
                wall_s = _apply_handicap(handicap, stage, wall_s)
            stages[stage] = {
                "wall_seconds": round(wall_s, 6),
                "sim_seconds": round(sim_s, 6),
                "calls": calls,
            }
        # an open frame's enter has been paid but not counted by an exit
        overhead_calls = self._overhead_calls + len(self._stack)
        stages["obs.profiler"] = {
            "wall_seconds": round(self._overhead_ns / 1e9, 6),
            "sim_seconds": 0.0,
            "calls": overhead_calls,
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
        return {node.path(): node.wall_ns for node in self._nodes()}


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
