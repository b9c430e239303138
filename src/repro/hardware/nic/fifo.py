"""The Outgoing FIFO: closed packets waiting for the NIC chip.

A thin wrapper over :class:`repro.sim.Store` that adds occupancy
statistics (and a ``metrics_snapshot`` for the machine's
:class:`~repro.sim.MetricsRegistry`).  Capacity is in packets; a full
FIFO backpressures the packetizer (blocking put), which is how a slow
link ultimately stalls the sending CPU's deliberate-update engine.

The NIC's injection stage drains the FIFO without a getter event: when
it finds the FIFO empty it parks a callback (:meth:`OutgoingFifo.park`)
and the next :meth:`OutgoingFifo.try_put` hands it the packet.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...sim import Event, Simulator, Store
from ..config import MachineConfig
from ..router.packet import Packet

__all__ = ["OutgoingFifo"]


class OutgoingFifo:
    """FIFO of closed packets between the packetizer and the arbiter."""

    def __init__(self, sim: Simulator, config: MachineConfig, name: str = "outgoing-fifo"):
        self.sim = sim
        self.config = config
        self._store = Store(sim, capacity=config.outgoing_fifo_packets, name=name)
        self.packets_enqueued = 0
        self.bytes_enqueued = 0
        self.high_water = 0
        self._consumer: Optional[Callable[[Packet], None]] = None

    def try_put(self, packet: Packet) -> bool:
        """Enqueue a packet unless the FIFO is full (then count nothing).

        A parked consumer is handed the packet straight through the
        store — the accounting a waiting getter would have seen — and
        runs synchronously, so this must be the last act of a NORMAL
        scheduler entry (``Packetizer._enqueue`` is): the URGENT wake it
        replaces would have been the next entry dispatched.
        """
        store = self._store
        if not store.try_put(packet):
            return False
        self.packets_enqueued += 1
        self.bytes_enqueued += packet.size
        consumer = self._consumer
        if consumer is None:
            self.high_water = max(self.high_water, len(store))
            return True
        self._consumer = None
        consumer(store.try_get())
        return True

    def park(self, consumer: Callable[[Packet], None]) -> None:
        """Wait for the next packet: :meth:`try_put` calls
        ``consumer(packet)``.  Only an empty FIFO has a parked consumer."""
        self._consumer = consumer

    def put(self, packet: Packet) -> Event:
        """Enqueue a packet; blocks (event pends) while the FIFO is full."""
        self.packets_enqueued += 1
        self.bytes_enqueued += packet.size
        event = self._store.put(packet)
        self.high_water = max(self.high_water, len(self._store))
        return event

    def get(self) -> Event:
        """Dequeue the oldest packet (the arbiter/injection side)."""
        return self._store.get()

    def try_get(self, default=None):
        """Non-blocking dequeue; ``default`` when the FIFO is empty."""
        return self._store.try_get(default)

    def __len__(self) -> int:
        return len(self._store)

    def metrics_snapshot(self, now=None) -> dict:
        """Utilization counters for the metrics registry."""
        snap = self._store.metrics_snapshot(now)
        snap["name"] = self._store.name
        snap["kind"] = "fifo"
        snap["bytes"] = self.bytes_enqueued
        return snap
