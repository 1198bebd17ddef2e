"""Event queue for the discrete-event kernel.

A minimal but complete priority-queue scheduler: events carry a fire
time, a callback, and a stable sequence number so simultaneous events
fire in scheduling order (determinism).  Events can be cancelled, which
the chain simulators use for re-orged proposals and expired timeouts.

Causal tracing rides through here: when a live recorder has an ambient
:class:`~repro.obs.context.TraceContext`, :meth:`EventQueue.schedule`
captures it onto the event and :meth:`EventQueue.step` re-activates it
around the callback, so a continuation scheduled inside one proof's
trace keeps reporting into that trace.  Infrastructure cadences (block
production) schedule with ``inherit_context=False`` -- a block is not
caused by any single journey.  With the null recorder the captured
context is always ``None`` and the path is untouched.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs import prof as _prof
from repro.obs.recorder import NULL_RECORDER, NullRecorder
from repro.simnet.clock import SimClock


@dataclass(order=True)
class ScheduledEvent:
    """A queue entry; ordering is (time, sequence)."""

    time: float
    sequence: int
    callback: Callable[[], Any] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: back-reference kept while the event is pending so cancel() can
    #: maintain the queue's live counter; cleared when the event fires.
    queue: "EventQueue | None" = field(default=None, compare=False, repr=False)
    #: trace context captured at scheduling time; re-activated around
    #: the callback so asynchronous continuations inherit their parent.
    context: Any = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when it comes due."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._forget(self)


class _SlotEntry:
    """One pre-sequenced (time, callback, context) member of a slot."""

    __slots__ = ("time", "sequence", "callback", "context")

    def __init__(self, time: float, sequence: int, callback: Callable[[], Any], context: Any):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.context = context


class _SlotCursor:
    """Drains one slot through a single in-heap proxy event.

    The cursor keeps the slot's entries sorted by (time, sequence) and
    holds exactly one :class:`ScheduledEvent` in the queue's heap at a
    time -- a proxy carrying the next-due entry's time, sequence and
    trace context, whose callback re-arms the following entry before
    firing the current one.  Because every entry was assigned its own
    sequence number when the slot was scheduled, the global firing order
    is byte-identical to the equivalent individual ``schedule`` calls;
    only the heap occupancy changes (O(1) per slot instead of O(n)).
    """

    __slots__ = ("queue", "entries", "index", "label")

    def __init__(self, queue: "EventQueue", entries: list[_SlotEntry], label: str):
        self.queue = queue
        self.entries = entries
        self.index = 0
        self.label = label

    def _arm(self) -> None:
        entry = self.entries[self.index]
        event = ScheduledEvent(
            time=entry.time, sequence=entry.sequence, callback=self._fire,
            label=self.label, queue=self.queue, context=entry.context,
        )
        heapq.heappush(self.queue._heap, event)

    def _fire(self) -> None:
        entry = self.entries[self.index]
        self.index += 1
        if self.index < len(self.entries):
            self._arm()  # re-arm first, so a raising callback cannot stall the slot
        else:
            self.queue._slots.remove(self)
        entry.callback()


class EventQueue:
    """A deterministic future-event list bound to a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None, recorder: NullRecorder | None = None):
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._live = 0  # pending, non-cancelled entries (O(1) __len__)
        #: fault hook: ``(label, fire_time) -> extra delay seconds``.
        #: None (the default) keeps scheduling byte-identical to an
        #: unfaulted run; installed by repro.faults injectors to model
        #: block-production stalls and receipt delays.
        self.fault_delay: Callable[[str, float], float] | None = None
        #: observers of uncaught callback exceptions, called as
        #: ``watcher(exc, label)`` before the exception propagates.
        #: Installed by the watchtower to dump a post-mortem bundle;
        #: empty (the default) keeps dispatch byte-identical.
        self.exception_watchers: list[Callable[[BaseException, str], None]] = []
        #: active slot cursors; their un-armed entries are invisible to
        #: the heap but still pending (see pending_labels / __len__).
        self._slots: list[_SlotCursor] = []
        self.recorder = NULL_RECORDER
        self._label_handles: dict[str, tuple[Any, Any, Any]] = {}
        self._depth_gauge = NULL_RECORDER.gauge_handle("sim_queue_depth")
        self._stage_cache: dict[str, str] = {}
        if recorder is not None:
            self.attach_recorder(recorder)

    def attach_recorder(self, recorder: NullRecorder) -> None:
        """Route this queue's telemetry into ``recorder``.

        Binds the recorder to this queue's clock (first binding wins),
        so gauge samples and spans land on the simulated time axis.
        """
        self.recorder = recorder
        recorder.bind_clock(self.clock)
        self._label_handles.clear()
        self._depth_gauge = recorder.gauge_handle("sim_queue_depth")

    def attach_profiler(self, profiler: Any) -> None:
        """Time ``profiler``'s sim-time axis by this queue's clock.

        Binding the clock is all this does: stages reach the profiler
        through the ambient :data:`repro.obs.prof.ACTIVE`.  While one is
        active, every :meth:`step` splits into the ``simnet.dispatch``
        stage (heap pop, clock advance, event telemetry) and a
        label-derived callback stage (``chain.block``, ``chain.confirm``
        or ``event.<label>``), on both the wall-clock and sim-time axes.
        Profiling only reads clocks; event order and results are
        byte-identical with it on or off.
        """
        profiler.bind_clock(self.clock)

    def _handles_for(self, label: str) -> tuple[Any, Any, Any]:
        """Cached (scheduled, fired, cancelled) counter handles per label.

        The kernel increments the same three counters for every event;
        pre-keying them once per label keeps the per-event telemetry
        cost to a dict update instead of a sorted-tuple key build.
        """
        handles = self._label_handles.get(label)
        if handles is None:
            shown = label or "<unlabelled>"
            recorder = self.recorder
            handles = self._label_handles[label] = (
                recorder.counter_handle("sim_events_scheduled_total", label=shown),
                recorder.counter_handle("sim_events_fired_total", label=shown),
                recorder.counter_handle("sim_events_cancelled_total", label=shown),
            )
        return handles

    def __len__(self) -> int:
        return self._live

    def schedule(
        self, delay: float, callback: Callable[[], Any], label: str = "",
        inherit_context: bool = True,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``inherit_context=False`` detaches the event from the ambient
        trace context (infrastructure cadences like block production).
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        if self.fault_delay is not None:
            delay += self.fault_delay(label, self.clock.now + delay)
        return self.schedule_at(self.clock.now + delay, callback, label, inherit_context)

    def schedule_at(
        self, timestamp: float, callback: Callable[[], Any], label: str = "",
        inherit_context: bool = True,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at an absolute simulated ``timestamp``."""
        if timestamp < self.clock.now:
            raise ValueError("cannot schedule an event in the past")
        context = None
        if inherit_context and self.recorder.enabled:
            context = self.recorder.current_context()
        event = ScheduledEvent(
            time=timestamp, sequence=next(self._sequence), callback=callback, label=label,
            queue=self, context=context,
        )
        heapq.heappush(self._heap, event)
        self._live += 1
        recorder = self.recorder
        if recorder.enabled:
            self._handles_for(label)[0].add()
            self._depth_gauge.set(self._live)
        return event

    def schedule_slot(
        self, entries: list[tuple[float, Callable[[], Any]]], label: str = "",
    ) -> _SlotCursor | None:
        """Schedule many ``(delay, callback)`` pairs as one heap-resident slot.

        Each pair gets its own fire time (fault-delay adjusted), its own
        sequence number and its own captured trace context -- exactly as
        the equivalent loop of :meth:`schedule` calls would -- so the
        firing order interleaves with other events byte-identically.
        But the heap only ever holds one proxy entry for the whole slot,
        so a block settling thousands of receipts costs O(log heap) once
        instead of thousands of pushes.  Slot entries cannot be
        cancelled (the chain's settlement path never cancels them).
        """
        now = self.clock.now
        fault = self.fault_delay
        recorder = self.recorder
        capture = recorder.enabled
        resolved: list[_SlotEntry] = []
        for delay, callback in entries:
            if delay < 0:
                raise ValueError("cannot schedule an event in the past")
            if fault is not None:
                delay += fault(label, now + delay)
            context = recorder.current_context() if capture else None
            resolved.append(_SlotEntry(now + delay, next(self._sequence), callback, context))
        if not resolved:
            return None
        resolved.sort(key=lambda entry: (entry.time, entry.sequence))
        self._live += len(resolved)
        if recorder.enabled:
            self._handles_for(label)[0].add(float(len(resolved)))
            self._depth_gauge.set(self._live)
        cursor = _SlotCursor(self, resolved, label)
        self._slots.append(cursor)
        cursor._arm()
        return cursor

    def _forget(self, event: ScheduledEvent) -> None:
        """Account for a pending event's cancellation (O(1) ``__len__``)."""
        self._live -= 1
        recorder = self.recorder
        if recorder.enabled:
            self._handles_for(event.label)[2].add()
            self._depth_gauge.set(self._live)

    def pending_labels(self) -> list[str]:
        """Labels of the pending events in firing order (diagnostics).

        Unlabelled events report as ``"<unlabelled>"``; cancelled events
        are skipped, matching :meth:`__len__`.  Slot entries not yet
        armed in the heap are merged in at their reserved (time,
        sequence) position.
        """
        pending = [
            (event.time, event.sequence, event.label or "<unlabelled>")
            for event in self._heap
            if not event.cancelled
        ]
        for cursor in self._slots:
            shown = cursor.label or "<unlabelled>"
            pending.extend(
                (entry.time, entry.sequence, shown)
                for entry in cursor.entries[cursor.index + 1:]
            )
        pending.sort()
        return [label for _, _, label in pending]

    def _stage_for(self, label: str) -> str:
        """The profile stage a callback with ``label`` attributes to."""
        stage = self._stage_cache.get(label)
        if stage is None:
            if label.endswith("-block"):
                stage = "chain.block"
            elif label == "confirm":
                stage = "chain.confirm"
            else:
                stage = f"event.{label or 'unlabelled'}"
            self._stage_cache[label] = stage
        return stage

    def step(self) -> ScheduledEvent | None:
        """Fire the earliest pending event, advancing the clock to it.

        Returns the fired event, or None if the queue is empty.
        """
        if _prof.ACTIVE.enabled:
            return self._step_profiled()
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue  # its cancellation already left the live count
            self._live -= 1
            event.queue = None  # a late cancel() must not re-decrement
            self.clock.advance_to(event.time)
            recorder = self.recorder
            if recorder.enabled:
                self._handles_for(event.label)[1].add()
                self._depth_gauge.set(self._live)
            try:
                if event.context is not None:
                    with recorder.activate(event.context):
                        event.callback()
                else:
                    event.callback()
            except Exception as exc:
                self._notify_exception(exc, event.label)
                raise
            return event
        return None

    def _notify_exception(self, exc: BaseException, label: str) -> None:
        for watcher in self.exception_watchers:
            try:
                watcher(exc, label or "<unlabelled>")
            except Exception:
                pass  # a broken watcher must not mask the original error

    def _step_profiled(self) -> ScheduledEvent | None:
        """:meth:`step` with stage attribution (profiled runs only).

        Same pops, same clock advance, same callback order -- the only
        additions are clock reads.  Dispatch bookkeeping lands in the
        ``simnet.dispatch`` stage (including the sim-time jump to the
        event's fire time); the callback runs under its label's stage.
        """
        profiler = _prof.ACTIVE
        profiler.enter("simnet.dispatch")
        event = None
        try:
            while self._heap:
                candidate = heapq.heappop(self._heap)
                if candidate.cancelled:
                    continue  # its cancellation already left the live count
                event = candidate
                break
            if event is None:
                return None
            self._live -= 1
            event.queue = None  # a late cancel() must not re-decrement
            self.clock.advance_to(event.time)
            recorder = self.recorder
            if recorder.enabled:
                self._handles_for(event.label)[1].add()
                self._depth_gauge.set(self._live)
        finally:
            profiler.exit()
        profiler.enter(self._stage_for(event.label))
        try:
            if event.context is not None:
                with self.recorder.activate(event.context):
                    event.callback()
            else:
                event.callback()
        except Exception as exc:
            self._notify_exception(exc, event.label)
            raise
        finally:
            profiler.exit()
        return event

    def run_until(self, timestamp: float) -> int:
        """Fire every event due at or before ``timestamp``; return the count.

        The clock ends exactly at ``timestamp`` even if the last event
        fired earlier (idle time passes too).
        """
        fired = 0
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time > timestamp:
                break
            if self.step() is not None:
                fired += 1
        self.clock.advance_to(timestamp)
        return fired
