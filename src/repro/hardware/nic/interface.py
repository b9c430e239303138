"""The SHRIMP network interface: Figure 2's datapath, assembled.

One :class:`NetworkInterface` per node ties together the snoop logic,
Outgoing Page Table, packetizer (combining), Outgoing FIFO, Deliberate
Update Engine, arbiter, Incoming Page Table, and Incoming DMA Engine,
and connects them to the mesh backplane.

The CPU side sees three entry points:

* :meth:`snoop_write` — called (synchronously, zero extra cost: the CPU
  already paid for the store) after every CPU store; the AU datapath.
* :meth:`initiate_deliberate_update` — the decoded result of the
  two-access initiation sequence; the DU datapath.  The *caller* charges
  the two EISA programmed-I/O accesses.
* the kernel hooks (:attr:`fault_handler`, :attr:`notify_handler`,
  :meth:`unfreeze`) — the interrupt side.

Like the hardware, the datapath has no software between its stages:
the injection stage here and the two DMA engines are state machines
that advance through scheduler callbacks, one step per timed hardware
action, with no simulation process of their own (docs/SIMULATOR.md,
"Callback-driven NIC engines").
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ...sim import BandwidthChannel, Event, FaultInjector, Simulator, Tracer
from ..config import MachineConfig
from ..memory import PhysicalMemory
from ..router.mesh import MeshBackplane
from .arbiter import Arbiter, OUTGOING_PRIORITY
from .dma import DeliberateUpdateEngine, DUCommand, IncomingDmaEngine, ReceiveFault
from .fifo import OutgoingFifo
from .ipt import IncomingPageTable
from .opt import OutgoingPageTable
from .packetizer import Packetizer
from .shadow import RegionShadow
from .snoop import SnoopLogic

__all__ = ["NetworkInterface"]


class NetworkInterface:
    """One node's SHRIMP NIC (the two custom boards of Section 3.2)."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        memory: PhysicalMemory,
        eisa: BandwidthChannel,
        mesh: MeshBackplane,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.memory = memory
        self.eisa = eisa
        self.mesh = mesh
        self.tracer = tracer or Tracer(sim)
        self.faults = faults or FaultInjector(sim)

        self.opt = OutgoingPageTable(config)
        self.ipt = IncomingPageTable(config)
        self.fifo = OutgoingFifo(sim, config, name="outgoing-fifo-n%d" % node_id)
        self.packetizer = Packetizer(sim, config, node_id, self.fifo, self.tracer,
                                     faults=self.faults)
        self.snoop = SnoopLogic(config, self.opt, self.packetizer)
        self.arbiter = Arbiter(sim, node_id)
        self.du_engine = DeliberateUpdateEngine(
            sim, config, node_id, memory, eisa, self.opt, self.packetizer,
            self.tracer, faults=self.faults
        )
        self.incoming = IncomingDmaEngine(
            sim, config, node_id, memory, eisa, self.ipt, self.arbiter,
            self.tracer, faults=self.faults
        )
        # One-sided READ_REQUEST replies leave through this node's own
        # outgoing datapath (packetizer -> FIFO -> inject -> mesh).
        self.incoming.packetizer = self.packetizer
        # Snoop-fed serve cache for exported read-served regions: fed by
        # snoop_write and by the landing engine's own DMA writes, read
        # by the READ_REQUEST serve path (docs/ONESIDED.md).
        self.shadow = RegionShadow(config)
        self.incoming.shadow = self.shadow
        mesh.attach(node_id, self.incoming.deliver)
        # The injection stage's packet in flight and its span.
        self._injecting = None
        self._inject_span = None
        # First look at the FIFO in a t=0 entry, as a process would.
        sim.schedule_call(0.0, self._inject_next)

    # -- CPU-facing datapaths ------------------------------------------------
    def snoop_write(self, paddr: int, data: bytes) -> None:
        """Feed one completed CPU store into the snoop logic (and the
        region shadow, when a region is registered)."""
        self.snoop.on_write(paddr, data)
        if self.shadow.pages:
            self.shadow.write(paddr, data)

    def initiate_deliberate_update(
        self,
        src_segments: List[Tuple[int, int]],
        opt_base: int,
        offset: int,
        size: int,
        interrupt: bool = False,
    ) -> Event:
        """Queue a deliberate update; returns its source-read-done event.

        The caller (VMMC layer) is responsible for charging the two EISA
        programmed-I/O accesses of the initiation sequence and for the
        word-alignment check the hardware imposes.
        """
        done = self.sim.event("du-done-n%d" % self.node_id)
        command = DUCommand(
            src_segments=src_segments,
            opt_base=opt_base,
            offset=offset,
            size=size,
            interrupt=interrupt,
            done=done,
        )
        self.du_engine.submit(command)
        return done

    # -- kernel hooks -----------------------------------------------------------
    @property
    def fault_handler(self) -> Optional[Callable[[ReceiveFault], None]]:
        return self.incoming.fault_handler

    @fault_handler.setter
    def fault_handler(self, handler: Callable[[ReceiveFault], None]) -> None:
        self.incoming.fault_handler = handler

    @property
    def notify_handler(self) -> Optional[Callable[[int, int], None]]:
        return self.incoming.notify_handler

    @notify_handler.setter
    def notify_handler(self, handler: Callable[[int, int], None]) -> None:
        self.incoming.notify_handler = handler

    def unfreeze(self, discard: bool = False) -> None:
        """Resume (optionally discarding) a frozen receive path."""
        self.incoming.unfreeze(discard=discard)

    # -- outgoing injection ---------------------------------------------------------
    # One serial stage per NIC moves closed packets from the Outgoing
    # FIFO onto the backplane: this is what makes per-source injection
    # (and therefore per-pair delivery) ordered.
    def _inject_next(self) -> None:
        """Take the next closed packet, or park until one is enqueued."""
        packet = self.fifo.try_get()
        if packet is None:
            self.fifo.park(self._inject_start)
        else:
            self._inject_start(packet)

    def _inject_start(self, packet) -> None:
        self._injecting = packet
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "nic.inject", "inject #%d %dB" % (packet.seq, packet.size),
                track="n%d.nic.inject" % self.node_id,
                data={"bytes": packet.size},
            )
        self._inject_span = span
        if self.arbiter.acquire(OUTGOING_PRIORITY, self._inject_granted):
            # Granted now: the step :meth:`_inject_granted` would take.
            self.sim.schedule_call(self.config.nic_injection_latency,
                                   self._inject_done)

    def _inject_granted(self) -> None:
        self.sim.schedule_call(self.config.nic_injection_latency,
                               self._inject_done)

    def _inject_done(self) -> None:
        packet = self._injecting
        self.tracer.log("inject", "n%d injected #%d", self.node_id, packet.seq)
        self.mesh.inject(packet)
        if self._inject_span is not None:
            self.tracer.end(self._inject_span)
        self.arbiter.release()
        self._inject_next()

    # -- statistics -------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot for tests and benchmark reports."""
        return {
            "au_writes_seen": self.snoop.writes_seen,
            "au_writes_matched": self.snoop.writes_matched,
            "packets_formed": self.packetizer.packets_formed,
            "combined_writes": self.packetizer.combined_writes,
            "du_transfers": self.du_engine.transfers_done,
            "du_bytes": self.du_engine.bytes_sent,
            "packets_received": self.incoming.packets_received,
            "bytes_received": self.incoming.bytes_received,
            "receive_faults": self.incoming.faults,
            "read_requests_served": self.incoming.read_requests_served,
            "read_requests_shadowed": self.incoming.read_requests_shadowed,
            "read_requests_dropped": self.incoming.read_requests_dropped,
            "read_requests_denied": self.incoming.read_requests_denied,
            "shadow_resident_bytes": self.shadow.resident_bytes,
            "fifo_high_water": self.fifo.high_water,
        }
