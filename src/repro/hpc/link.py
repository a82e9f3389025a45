"""Unidirectional HPC links.

A link connects the output section of one port to the input section of
another (node-to-cluster, cluster-to-cluster, or cluster-to-workstation;
both directions of a physical fibre are independent 160 Mbit/s links,
paper Section 1).  A link serializes one message at a time and implements
the hardware flow control described in Section 2: it will not begin
transmitting until the downstream input has a free whole-message buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import Event, PENDING as _PENDING
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.message import Packet
    from repro.hpc.port import BufferedInput


class Link:
    """One direction of a fibre: FIFO serializer with downstream reservation.

    Senders call :meth:`send`; transmissions happen strictly in request
    order (this is the "fair hardware scheduling" of Section 2 -- FIFO
    service means every sender is eventually serviced).
    """

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        downstream: "BufferedInput",
        name: str = "link",
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.downstream = downstream
        self.name = name
        self._requests: Store = Store(sim)
        #: vstat registry for fabric statistics (one per link name).
        self.metrics = sim.vstat.registry(name)
        self._m_messages = self.metrics.counter("link.messages_carried")
        self._m_bytes = self.metrics.counter("link.bytes_carried")
        self._m_busy = self.metrics.counter("link.busy_us")
        self._m_queue = self.metrics.gauge("link.queue_depth")
        sim.process(self._pump())

    # -- counter-backed statistics ------------------------------------------
    @property
    def messages_carried(self) -> int:
        """Total messages carried (for fabric statistics)."""
        return int(self._m_messages.value)

    @property
    def bytes_carried(self) -> int:
        """Total payload bytes carried."""
        return int(self._m_bytes.value)

    @property
    def busy_time(self) -> float:
        """Cumulative time spent actually serializing (for utilisation)."""
        return self._m_busy.value

    def send(self, packet: "Packet") -> Event:
        """Queue ``packet``; the event fires when it is in the downstream buffer."""
        # ``Event.__init__`` inlined (one request event per message on
        # the wire) -- mirror of the constructor's five slot stores.
        sim = self.sim
        done = Event.__new__(Event)
        done.sim = sim
        done.callbacks = []
        done._value = _PENDING
        done._ok = None
        done._defused = False
        # ``Store.try_put`` on the unbounded request queue, inlined: the
        # pump is usually parked as a getter, so this is one handoff
        # (inlined ``succeed``) per message on the wire.
        requests = self._requests
        getters = requests._getters
        if getters:
            getter = getters.popleft()
            getter._ok = True
            getter._value = (packet, done)
            sim._imm_normal.append((sim._now, sim._seq, getter))
            sim._seq += 1
        else:
            requests._items.append((packet, done))
        return done

    @property
    def queue_length(self) -> int:
        """Transmissions waiting for the wire."""
        return len(self._requests)

    def _pump(self):
        # Everything loop-invariant is bound once: this generator resumes
        # several times per carried message and the attribute chains showed
        # up in engine profiles.
        sim = self.sim
        requests = self._requests
        request_items = requests._items  # Store's deque, len() per message
        m_queue = self._m_queue
        wire_time = self.costs.hpc_wire_time
        hop_latency = self.costs.hpc_hop_latency
        downstream = self.downstream
        # Metric objects (not their ``inc``/``set`` methods): the pump
        # updates the counter fields directly -- same observable values,
        # three fewer Python frames per carried message.
        m_busy = self._m_busy
        m_messages = self._m_messages
        m_bytes = self._m_bytes
        while True:
            packet, done = yield requests.get()
            depth = len(request_items)
            m_queue.value = depth
            if depth > m_queue.max_value:
                m_queue.max_value = depth
            injector = sim.faults
            decision = None
            if injector is not None:
                stall = injector.stall_remaining(self.name)
                if stall > 0:
                    # NIC stall window: the wire sits idle until it ends.
                    yield sim.timeout(stall)
                if injector.crash_drop(self.name, packet):
                    done.succeed()
                    continue
                decision = injector.link_decision(self.name, packet)
                if decision.drop:
                    # Lost on the wire: serialization happened, but the
                    # downstream end discarded the damaged message
                    # immediately, so no buffer is held.
                    wire = wire_time(packet.size) + hop_latency
                    yield sim.timeout(wire)
                    m_busy.value += wire
                    done.succeed()
                    continue
                if decision.corrupt:
                    packet.corrupted = True
                if decision.delay_us > 0:
                    yield sim.timeout(decision.delay_us)
            copies = 2 if decision is not None and decision.duplicate else 1
            for copy in range(copies):
                # Hardware flow control: wait for a whole-message buffer
                # downstream before occupying the wire.
                stall_from = sim._now
                yield downstream.reserve()
                stalled = sim._now - stall_from
                if stalled > 0:
                    self.metrics.counter("link.reserve_stalls").inc()
                    self.metrics.counter("link.reserve_stall_us").inc(stalled)
                size = packet.size
                wire = wire_time(size) + hop_latency
                if injector is not None:
                    # Degraded link: a brownout window stretches the
                    # serialization itself, so busy time reflects it.
                    wire += injector.brownout_extra_us(self.name, wire)
                yield sim.timeout(wire)
                m_busy.value += wire
                m_messages.value += 1.0
                m_bytes.value += size
                packet.hops += 1
                downstream.deliver(packet)
                if copy == 0:
                    # ``Event.succeed`` inlined: nothing else triggers the
                    # request's done event on this path.
                    done._ok = True
                    done._value = None
                    sim._imm_normal.append((sim._now, sim._seq, done))
                    sim._seq += 1
