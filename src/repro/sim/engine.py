"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the pending-occurrence queues.
Occurrences are totally ordered by ``(time, priority, sequence)`` so
that simultaneous occurrences are processed in a deterministic order and
urgent occurrences (process interrupts) precede normal ones at the same
instant.  Priority and sequence are packed into one integer (priority
times :data:`_PRIO_STRIDE` plus sequence), which is unique per
occurrence.

Two kinds of queue hold pending occurrences:

* **Immediate lanes.**  The dominant scheduling operation is triggering
  an event with *zero* delay (``Event.succeed``/``fail``, process
  starts, interrupts).  At the moment such an occurrence is scheduled it
  already sorts after everything pending at the same ``(time,
  priority)``, so it goes onto a plain FIFO (one per priority).  Because
  simulation time never moves backwards, each lane stays sorted by
  ``(time, sequence)``.
* **The heap.**  Delayed occurrences go onto one ``heapq`` list of
  ``(time, order, item)`` tuples.  ``order`` is unique, so items are
  never compared.

The drain loop merges the three heads under the global order, which
reproduces a single all-heap engine bit-for-bit (pinned by
``tests/test_determinism.py``).  A zero-delay trigger costs an append
and a popleft on a lane instead of an O(log n) heap push and pop;
whether that pays end to end is not settled (README "Performance").
Cancellation is lazy -- a cancelled :class:`Handle` stays queued and is
skipped when popped -- with compaction once cancelled entries dominate
the heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import nextafter
from typing import Any, Callable, Generator, Optional

from repro.metrics.events import Vstat
from repro.sim.events import Event, Timeout, NORMAL

#: Lazy-cancel compaction trigger: compact the heap when more than half
#: of it is cancelled handles (and there are enough of them to matter) --
#: the asyncio approach, keeping queue growth bounded under
#: ``call_later(...).cancel()`` churn.
_MIN_CANCELLED_TO_COMPACT = 64

#: Packed-order stride: ``order = priority * _PRIO_STRIDE + seq`` compares
#: identically to the tuple ``(priority, seq)`` as long as sequence
#: numbers stay below the stride -- far beyond any reachable run length.
_PRIO_STRIDE = 1 << 62

_INFINITY = float("inf")


class Handle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_later`.  Cancellation is lazy: the
    queue entry stays in place and is skipped when popped, but the
    simulator counts cancelled entries and compacts the heap when they
    dominate it.
    """

    __slots__ = ("fn", "args", "cancelled", "time", "_sim")

    def __init__(
        self, sim: "Simulator", time: float, fn: Callable[..., None],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        This is ``Simulator._note_cancelled`` inlined: CPU preemption
        cancels one completion handle per suspended charge, so the
        cancel -> count -> maybe-compact path is hot.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            cancelled = sim._cancelled + 1
            sim._cancelled = cancelled
            if (
                cancelled > _MIN_CANCELLED_TO_COMPACT
                and cancelled * 2 > len(sim._heap)
            ):
                sim._compact()

    def _process(self) -> None:
        """Run the callback.  Called by the engine (never when cancelled)."""
        self.fn(*self.args)


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when the queue is exhausted."""


class Simulator:
    """The event loop: simulated clock plus pending-occurrence queues.

    Time is a float in **microseconds** (see :mod:`repro.model.units`).
    """

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_imm_urgent",
        "_imm_normal",
        "_cancelled",
        "processed",
        "vstat",
        "faults",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        #: ``heapq`` of ``(time, order, item)`` for *delayed* occurrences,
        #: ``item`` an Event or a Handle.  Compaction rewrites it in place
        #: (never rebinds) because :meth:`_drain` holds a local reference.
        self._heap: list[tuple[float, int, Any]] = []
        #: FIFO lanes of (time, seq, item) for zero-delay occurrences,
        #: one per priority level.  Drained ahead of the heap whenever
        #: their head sorts first.  The normal lane may hold cancelled
        #: zero-delay :class:`Handle`\\ s (skipped at pop time); the
        #: urgent lane only ever holds events.
        self._imm_urgent: deque[tuple[float, int, Event]] = deque()
        self._imm_normal: deque[tuple[float, int, Any]] = deque()
        #: Cancelled handles still sitting in a queue (lazy cancellation).
        self._cancelled: int = 0
        #: Occurrences processed so far (read by ``scripts/perf.py`` to
        #: report events/sec).
        self.processed: int = 0
        #: Unified instrumentation hub: every component sharing this
        #: simulator registers its metrics and trace events here.
        self.vstat = Vstat()
        #: Attached fault injector (:mod:`repro.faults`), or ``None``.
        #: When ``None`` every transport fault hook is a no-op and the
        #: simulation is bit-identical to an uninstrumented run.
        self.faults = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (microseconds)."""
        return self._now

    # -- scheduling ----------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float, priority: int) -> None:
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            # Immediate lane: no heap traffic for the dominant case.
            if priority == NORMAL:
                self._imm_normal.append((self._now, seq, event))
            else:
                self._imm_urgent.append((self._now, seq, event))
        else:
            heappush(
                self._heap,
                (self._now + delay, priority * _PRIO_STRIDE + seq, event),
            )

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay``; returns a cancellable handle."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay: {delay}")
        now = self._now
        time = now + delay
        # ``Handle.__init__`` inlined (CPU charge completions create one
        # handle per dispatch): plain slot stores, no constructor frame.
        handle = Handle.__new__(Handle)
        handle._sim = self
        handle.time = time
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            # Same immediate lane as zero-delay events: a zero-delay
            # callback already sorts after everything pending at
            # ``(now, NORMAL)``, so it needs no heap either.  The lane
            # pop paths skip it if it is cancelled before it runs.
            self._imm_normal.append((now, seq, handle))
        else:
            heappush(self._heap, (time, _PRIO_STRIDE + seq, handle))
        return handle

    def _compact(self) -> None:
        """Drop every cancelled entry and recount ``_cancelled`` exactly.

        The heap is rewritten *in place* (slice assignment, never
        rebinding) because the drain loop in :meth:`run` holds a local
        reference to it.  Keys are unique, so re-heapifying the survivors
        leaves their pop order unchanged.  The normal immediate lane is
        purged too: zero-delay handles live there, and leaving cancelled
        ones uncounted would let ``_cancelled`` drift from reality (going
        negative defers every future compaction -- see
        ``test_cancelled_counter_invariant``).
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        normal = self._imm_normal
        if normal:
            kept = [entry for entry in normal if not entry[2].cancelled]
            if len(kept) != len(normal):
                normal.clear()
                normal.extend(kept)
        # Recount (not decrement): every cancelled entry is gone now.
        self._cancelled = 0

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` from now."""
        # ``Timeout.__init__`` inlined -- its constructor chain (Event
        # ctor + ``_schedule_event``) costs three extra frames, and a
        # timeout is created per wire transfer and watchdog arm.  The
        # Timeout class itself keeps a working constructor for direct
        # construction.
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event._ok = True
        event._value = value
        event._defused = False
        event.delay = delay
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._imm_normal.append((self._now, seq, event))
        else:
            heappush(self._heap, (self._now + delay, _PRIO_STRIDE + seq, event))
        return event

    def process(self, generator: Generator) -> "Process":
        """Start a new simulated process running ``generator``."""
        return Process(self, generator)

    # -- execution -------------------------------------------------------------
    def _skip_cancelled_heads(self) -> None:
        """Pop cancelled handles off the heap and normal-lane heads."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            if self._cancelled > 0:
                self._cancelled -= 1
        normal = self._imm_normal
        while normal and normal[0][2].cancelled:
            normal.popleft()
            if self._cancelled > 0:
                self._cancelled -= 1

    def peek(self) -> float:
        """Time of the next occurrence, or ``inf`` if the queue is empty."""
        self._skip_cancelled_heads()
        time = self._heap[0][0] if self._heap else _INFINITY
        for lane in (self._imm_urgent, self._imm_normal):
            if lane and lane[0][0] < time:
                time = lane[0][0]
        return time

    def _pop_next(self) -> Any:
        """Remove and return the next occurrence, advancing the clock.

        The three queue heads (urgent FIFO, normal FIFO, heap) are
        compared under the global ``(time, priority, seq)`` order; the
        winner is popped.  Raises :class:`EmptySchedule` when nothing is
        pending at all.
        """
        self._skip_cancelled_heads()
        heap = self._heap
        lane = -1
        if heap:
            best_time, best_order, _ = heap[0]
            lane = 0
        urgent = self._imm_urgent
        if urgent:
            time, seq, _ = urgent[0]
            # URGENT == 0: the packed order of an urgent entry is its seq.
            if lane < 0 or (time, seq) < (best_time, best_order):
                best_time, best_order = time, seq
                lane = 1
        normal = self._imm_normal
        if normal:
            time, seq, _ = normal[0]
            order = _PRIO_STRIDE + seq  # NORMAL == 1
            if lane < 0 or (time, order) < (best_time, best_order):
                best_time, best_order = time, order
                lane = 2
        if lane < 0:
            raise EmptySchedule()
        self._now = best_time
        self.processed += 1
        if lane == 2:
            return normal.popleft()[2]
        if lane == 1:
            return urgent.popleft()[2]
        return heappop(heap)[2]

    def step(self) -> None:
        """Process exactly one occurrence."""
        self._pop_next()._process()

    def _drain(self, stop: Optional[Event], deadline: float) -> None:
        """The run loop: process occurrences in ``(time, priority, seq)`` order.

        Stops when the schedule empties, when ``stop`` (if given) has been
        processed, or when the next occurrence lies beyond ``deadline``.
        This is :meth:`_pop_next` inlined into the loop with every queue
        bound to a local -- the single hottest function in the repository,
        so it trades a little repetition for one frame (and several
        attribute loads) less per processed occurrence.
        """
        heap = self._heap
        urgent = self._imm_urgent
        normal = self._imm_normal
        urgent_popleft = urgent.popleft
        normal_popleft = normal.popleft
        stride = _PRIO_STRIDE
        processed = 0
        try:
            while True:
                if stop is not None and stop.callbacks is None:
                    return
                if heap:
                    head = heap[0]
                    if head[2].cancelled:
                        heappop(heap)
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    best_time = head[0]
                    best_order = head[1]
                    lane = 0
                else:
                    lane = -1
                if urgent:
                    head = urgent[0]
                    time = head[0]
                    # URGENT == 0: packed order of an urgent entry == seq.
                    if (
                        lane < 0
                        or time < best_time
                        or (time == best_time and head[1] < best_order)
                    ):
                        best_time = time
                        best_order = head[1]
                        lane = 1
                if normal:
                    head = normal[0]
                    if head[2].cancelled:
                        # A zero-delay handle cancelled before it ran.
                        normal_popleft()
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    time = head[0]
                    if lane < 0 or time < best_time or (
                        time == best_time and stride + head[1] < best_order
                    ):
                        best_time = time
                        best_order = stride + head[1]
                        lane = 2
                if lane < 0:
                    return
                if best_time > deadline:
                    return
                self._now = best_time
                processed += 1
                if lane == 2:
                    item = normal_popleft()[2]
                elif lane == 1:
                    item = urgent_popleft()[2]
                else:
                    item = heappop(heap)[2]
                item._process()
        finally:
            self.processed += processed

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue empties, a deadline passes, or an event fires.

        ``until`` may be:

        * ``None`` -- run to queue exhaustion;
        * a number -- run until simulated time reaches it;
        * an :class:`Event` -- run until it is processed, returning its
          value (raising its exception if it failed).
        """
        if until is None:
            self._drain(None, _INFINITY)
            return None
        if isinstance(until, Event):
            stop = until
            self._drain(stop, _INFINITY)
            if stop.callbacks is not None:  # schedule emptied first
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    f"event triggered: {stop!r}"
                )
            if stop.ok:
                return stop.value
            stop.defuse()
            raise stop.value
        deadline = float(until)
        if deadline < self._now:
            raise ValueError(
                f"deadline {deadline} is in the past (now={self._now})"
            )
        self._drain(None, deadline)
        self._now = deadline
        return None

    def run_window(self, bound: float) -> None:
        """Process every occurrence *strictly before* ``bound``.

        The conservative-parallel shard loop (:mod:`repro.sim.parallel`)
        runs each shard in windows: occurrences *at* the window boundary
        must not run until the orchestrator has delivered any cross-shard
        messages arriving exactly at ``bound``, so the drain deadline is
        the largest float below ``bound`` (the inner loop's deadline test
        is inclusive).  Unlike :meth:`run`, the clock is left at the last
        processed occurrence rather than advanced to ``bound`` -- the
        next window's injected arrivals are all at or beyond ``bound``,
        so delays computed against ``now`` stay non-negative either way,
        and :meth:`peek` keeps exporting the true next-occurrence time
        (the shard's LBTS contribution).
        """
        self._drain(None, nextafter(bound, -_INFINITY))


# Bottom import: Process subclasses Event and only type-references
# Simulator, but keeping the import here (not at the top) avoids ever
# creating an import cycle while letting ``Simulator.process`` skip a
# per-call local import.
from repro.sim.process import Process  # noqa: E402
