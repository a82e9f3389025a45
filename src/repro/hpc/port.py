"""Full-message input buffering with hardware flow-control credits.

Paper, Section 2: *"Each HPC link ... refuses to accept a message unless
the hardware has room to buffer an entire message, forcing the sender to
wait until the space is available."*

:class:`BufferedInput` models the input section of a port: a fixed number
of whole-message buffers guarded by credits.  An upstream link must
*reserve* a credit before it starts serializing; the consumer (a cluster
forwarding engine or the node's kernel) *frees* the credit once the
message has left the buffer.  Because credits are granted in FIFO order,
every waiting sender is eventually serviced -- the paper's fairness
guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.events import Event
from repro.sim.resources import Semaphore, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.hpc.message import Packet


class BufferedInput:
    """The input section of a port: N whole-message buffers + credits."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "in") -> None:
        if capacity < 1:
            raise ValueError(f"input needs at least one buffer, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._credits = Semaphore(sim, value=capacity)
        self._queue: Store = Store(sim)  # unbounded; bounded by credits
        #: Invoked after every delivery (the NIC uses this for interrupts).
        self.on_deliver: Optional[Callable[["Packet"], None]] = None

    # -- upstream (link) side ------------------------------------------------
    def reserve(self) -> Event:
        """Claim one whole-message buffer; fires when granted (FIFO)."""
        return self._credits.acquire()

    def deliver(self, packet: "Packet") -> None:
        """Place a message in a previously reserved buffer."""
        # The Store's deque is read directly here and in ``free``/
        # ``pending``: these run once per carried message and the
        # ``len(Store)`` protocol call showed up in engine profiles.
        queued = len(self._queue._items)
        if queued >= self.capacity:
            raise RuntimeError(
                f"{self.name}: delivery without reservation "
                f"({queued} >= {self.capacity})"
            )
        self._queue.try_put(packet)
        if self.on_deliver is not None:
            self.on_deliver(packet)

    # -- downstream (consumer) side --------------------------------------------
    def get(self) -> Event:
        """Wait for the oldest buffered message (does NOT free the buffer)."""
        return self._queue.get()

    def try_get(self) -> tuple[bool, Optional["Packet"]]:
        """Non-blocking get (does NOT free the buffer)."""
        return self._queue.try_get()

    def free(self) -> None:
        """Release one buffer back to the credit pool."""
        credits = self._credits
        value = credits._value
        if value + len(self._queue._items) >= self.capacity:
            raise RuntimeError(f"{self.name}: freed more buffers than reserved")
        # ``Semaphore.release(1)`` inlined (one free per consumed
        # message).  The drain loop reduces to "wake one waiter or bank
        # the unit": a positive value and a non-empty waiter queue never
        # coexist (acquire only banks a waiter when no unit is free).
        waiters = credits._waiters
        if waiters:
            waiters.popleft().succeed()
        else:
            credits._value = value + 1

    # -- inspection ----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Messages currently buffered."""
        return len(self._queue._items)

    @property
    def free_buffers(self) -> int:
        """Unreserved buffers."""
        return self._credits.value

    @property
    def waiting_senders(self) -> int:
        """Upstream links blocked waiting for a buffer."""
        return self._credits.waiting
