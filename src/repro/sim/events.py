"""Event primitives for the DES engine.

An :class:`Event` is a one-shot occurrence with a value.  Processes wait on
events by ``yield``\\ ing them; the engine resumes the process with the
event's value (or throws the event's exception) once the event triggers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class _Pending:
    """Sentinel for "no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


#: Sentinel value of an untriggered event.
PENDING: Any = _Pending()

#: Queue priority for urgent occurrences (interrupts) -- processed before
#: normal events at the same timestamp.
URGENT = 0
#: Queue priority for normal occurrences.
NORMAL = 1


class Interrupt(Exception):
    """Thrown into a process by :meth:`repro.sim.process.Process.interrupt`.

    The ``cause`` is whatever the interrupter supplied; simulated device
    interrupts, preemption notifications and timeouts-with-cancellation all
    use this.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> (:meth:`succeed` | :meth:`fail`) -> *triggered*
    -> callbacks run (the event is then *processed*).  Triggering is
    asynchronous: callbacks run via the engine queue at the current
    simulation time, preserving deterministic ordering.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    #: Events are never cancelled; the class attribute lets the engine
    #: test ``item.cancelled`` on every queue entry (Event or Handle)
    #: without an ``isinstance`` branch on the hot path.
    cancelled = False

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked with the event once it is processed.  ``None``
        #: after processing.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Zero-delay normal trigger: append straight onto the engine's
        # immediate lane (the inlined tail of ``Simulator._schedule_event``
        # -- this is the hottest call in the whole simulation).
        sim = self.sim
        sim._imm_normal.append((sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes have the exception thrown into them.  If *nobody*
        is waiting when the failure is processed, the exception propagates
        out of :meth:`Simulator.run` so programming errors are not silently
        swallowed.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._imm_normal.append((sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the same outcome as another (triggered) event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled, suppressing propagation."""
        self._defused = True

    # -- engine internals --------------------------------------------------
    def _process(self) -> None:
        """Run callbacks.  Called by the engine (never twice: the queue
        holds each event at most once, and ``callbacks`` becoming ``None``
        here is what marks it processed)."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if self._ok is False and not self._defused:
            raise self._value

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed delay.

    Created via :meth:`Simulator.timeout`; pre-triggered at construction
    and scheduled ``delay`` into the future.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule_event(self, delay, NORMAL)


class Condition(Event):
    """Waits for a combination of events (base for :class:`AnyOf`/:class:`AllOf`).

    The condition's value is a dict mapping each *triggered* constituent
    event to its value at the moment the condition fired.
    """

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _satisfied(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._ok is False:
                event.defuse()
            return
        self._count += 1
        if event._ok is False:
            event.defuse()
            self.fail(event._value)
        elif self._satisfied(self._count, len(self.events)):
            self.succeed(
                {ev: ev._value for ev in self.events if ev.processed and ev._ok}
            )


class AnyOf(Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count >= 1


class AllOf(Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count >= total
