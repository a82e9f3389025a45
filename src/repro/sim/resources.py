"""Waitable resources: semaphores, stores (mailboxes), and counted resources.

These are *engine-level* primitives used to build hardware models.  The
VORX kernel exposes its own semaphore abstraction to simulated application
code (:mod:`repro.vorx.semaphore`), which charges CPU time on top of these.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim.events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

# ``Event.__init__`` and the ``succeed`` fast path are inlined below at
# every per-operation site (acquire/put/get run once or more per carried
# message; the constructor and trigger frames dominated their cost).
# The inlined bodies must mirror :class:`Event`: five slot stores to
# construct, and trigger = set ``_ok``/``_value`` + append to the
# engine's normal immediate lane.  A freshly constructed event cannot
# have been triggered, so the double-trigger guard is vacuous here.
_new_event = Event.__new__


class Semaphore:
    """A counting semaphore with FIFO wakeup order.

    ``acquire()`` returns an event that triggers once a unit is granted;
    ``release()`` returns units.  FIFO ordering keeps simulations
    deterministic and models the paper's fair hardware scheduling.
    """

    def __init__(self, sim: "Simulator", value: int = 1) -> None:
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self.sim = sim
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        """Units currently available."""
        return self._value

    @property
    def waiting(self) -> int:
        """Number of pending acquisitions."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request one unit; the returned event fires when granted."""
        sim = self.sim
        event = _new_event(Event)
        event.sim = sim
        event.callbacks = []
        event._value = PENDING
        event._ok = None
        event._defused = False
        if self._value > 0 and not self._waiters:
            self._value -= 1
            event._ok = True
            event._value = None
            sim._imm_normal.append((sim._now, sim._seq, event))
            sim._seq += 1
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a unit immediately if available (non-blocking)."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self, units: int = 1) -> None:
        """Return ``units``, waking waiters in FIFO order."""
        if units <= 0:
            raise ValueError(f"must release a positive count, got {units}")
        self._value += units
        waiters = self._waiters
        while self._value > 0 and waiters:
            self._value -= 1
            # ``succeed`` inlined: a queued waiter is pending by
            # construction (it is only triggered when popped here).
            waiter = waiters.popleft()
            waiter._ok = True
            waiter._value = None
            sim = self.sim
            sim._imm_normal.append((sim._now, sim._seq, waiter))
            sim._seq += 1


class Resource(Semaphore):
    """A semaphore whose units represent identical servers (e.g. a bus)."""

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(sim, value=capacity)
        self.capacity = capacity

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self.capacity - self.value


class Store:
    """A bounded FIFO of items with blocking put/get (a mailbox).

    ``capacity`` may be ``None`` for an unbounded store.  Used for message
    queues, hardware fifos measured in messages, and ready lists.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (for debuggers/tools)."""
        return tuple(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the event fires once it is accepted."""
        sim = self.sim
        event = _new_event(Event)
        event.sim = sim
        event.callbacks = []
        event._value = PENDING
        event._ok = None
        event._defused = False
        getters = self._getters
        if getters:
            # Hand straight to the oldest waiting getter (``succeed``
            # inlined: a queued getter is pending by construction).
            getter = getters.popleft()
            getter._ok = True
            getter._value = item
            sim._imm_normal.append((sim._now, sim._seq, getter))
            sim._seq += 1
        else:
            items = self._items
            capacity = self.capacity
            if capacity is not None and len(items) >= capacity:
                self._putters.append((event, item))
                return event
            items.append(item)
        event._ok = True
        event._value = None
        sim._imm_normal.append((sim._now, sim._seq, event))
        sim._seq += 1
        return event

    def try_put(self, item: Any) -> bool:
        """Enqueue immediately if there is room (non-blocking)."""
        getters = self._getters
        if getters:
            # ``succeed`` inlined, as in :meth:`put`.
            getter = getters.popleft()
            getter._ok = True
            getter._value = item
            sim = self.sim
            sim._imm_normal.append((sim._now, sim._seq, getter))
            sim._seq += 1
            return True
        items = self._items
        capacity = self.capacity
        if capacity is None or len(items) < capacity:
            items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Dequeue the oldest item; the event fires with the item."""
        sim = self.sim
        event = _new_event(Event)
        event.sim = sim
        event.callbacks = []
        event._value = PENDING
        event._ok = None
        event._defused = False
        items = self._items
        if items:
            event._ok = True
            event._value = items.popleft()
            sim._imm_normal.append((sim._now, sim._seq, event))
            sim._seq += 1
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """``(True, item)`` if an item was available, else ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()
