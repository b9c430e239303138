"""Packetizing hardware: turns snooped writes and DU chunks into packets.

Implements the combining behaviour of Section 3.2:

* If a page's OPT entry is configured for combining, an automatic-update
  write is buffered in an open packet at the FIFO tail; a subsequent AU
  write to the *next consecutive address* is appended to it.
* A non-consecutive write closes the open packet and starts a new one.
* A packet reaching ``max_packet_payload`` is closed.
* If the page is configured for the hardware timer, a timeout with no
  subsequent AU write sends the open packet automatically.

Deliberate-update chunks bypass combining (they are already maximal) but
share the FIFO, so AU/DU ordering from one node is preserved — the mux
in Figure 2.

With the tracer enabled, each closed packet emits one ``nic.packetize``
span on track ``n<id>.nic.pktz`` covering the lookup-plus-packetize
latency it was charged (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Callable, Optional

from ...sim import FaultInjector, Simulator, Tracer, spawn
from ..config import MachineConfig
from ..router.packet import Packet, PacketKind
from .fifo import OutgoingFifo
from .opt import OPTEntry, effective_timer
from ...sim.timers import IdleTimer

__all__ = ["Packetizer"]


class _OpenPacket:
    """A packet under construction at the FIFO tail."""

    __slots__ = ("dst_node", "dst_paddr", "data", "interrupt", "use_timer",
                 "timeout", "last_write")

    def __init__(self, dst_node: int, dst_paddr: int, data: bytes, interrupt: bool,
                 use_timer: bool, timeout: float, now: float):
        self.dst_node = dst_node
        self.dst_paddr = dst_paddr
        self.data = bytearray(data)
        self.interrupt = interrupt
        self.use_timer = use_timer
        self.timeout = timeout
        self.last_write = now


class Packetizer:
    """The packetizing + combining stage of one NIC's outgoing datapath."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        fifo: OutgoingFifo,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.fifo = fifo
        self.tracer = tracer or Tracer(sim)
        self.faults = faults or FaultInjector(sim)
        self._open: Optional[_OpenPacket] = None
        self._timer = IdleTimer(sim, self._timer_probe, self._close_open)
        self._last_enqueue_at = 0.0
        self.packets_formed = 0
        self.combined_writes = 0

    # -- automatic update path ------------------------------------------------
    def au_write(self, offset_in_page: int, data: bytes, entry: OPTEntry) -> None:
        """Handle one snooped write of ``data`` to a bound page.

        ``data`` never crosses a page boundary (the snoop logic splits
        bus writes per page before OPT lookup).
        """
        cfg = self.config
        dst_paddr = entry.dst_paddr(cfg.page_size, offset_in_page)
        if not entry.combining:
            # Every word of the write becomes its own packet — the
            # faithful (and expensive) uncombined behaviour; see the
            # combining ablation benchmark.
            if self._open is not None:
                self._close_open()
            word = cfg.word_size
            for i in range(0, len(data), word):
                self._emit_closed(
                    entry.dst_node,
                    dst_paddr + i,
                    bytes(data[i : i + word]),
                    PacketKind.AUTOMATIC_UPDATE,
                    entry.dest_interrupt,
                )
            return

        position = 0
        while position < len(data):
            open_packet = self._open
            addr = dst_paddr + position
            if (
                open_packet is not None
                and open_packet.dst_node == entry.dst_node
                and open_packet.dst_paddr + len(open_packet.data) == addr
                and len(open_packet.data) < cfg.max_packet_payload
            ):
                room = cfg.max_packet_payload - len(open_packet.data)
                chunk = data[position : position + room]
                open_packet.data.extend(chunk)
                open_packet.interrupt = open_packet.interrupt or entry.dest_interrupt
                open_packet.last_write = self.sim._now
                self.combined_writes += 1
                position += len(chunk)
                if len(open_packet.data) >= cfg.max_packet_payload:
                    self._close_open()
                continue
            # Not combinable with the open packet: close it and open fresh.
            if open_packet is not None:
                self._close_open()
            chunk = data[position : position + cfg.max_packet_payload]
            timeout = effective_timer(entry, cfg, self.faults, self.node_id)
            self._open = _OpenPacket(
                entry.dst_node,
                addr,
                bytes(chunk),
                entry.dest_interrupt,
                entry.use_timer,
                timeout,
                self.sim._now,
            )
            position += len(chunk)
            if len(self._open.data) >= cfg.max_packet_payload:
                self._close_open()
            elif entry.use_timer:
                self._timer.arm(timeout)

    # -- deliberate update path --------------------------------------------------
    def du_emit(self, dst_node: int, dst_paddr: int, payload: bytes, interrupt: bool) -> None:
        """Queue a DU chunk as one packet (after closing any open AU packet)."""
        if self._open is not None:
            self._close_open()
        self._emit_closed(dst_node, dst_paddr, payload, PacketKind.DELIBERATE_UPDATE, interrupt)

    # -- one-sided read request path ---------------------------------------------
    def request_emit(self, dst_node: int, payload: bytes) -> None:
        """Queue a READ_REQUEST descriptor as one packet.

        Request packets carry no destination store address (the target
        NIC interprets the descriptor instead of landing the payload),
        but they share the FIFO and the mesh with update traffic, so
        per-pair ordering and the mesh fault sites apply to them too.
        """
        if self._open is not None:
            self._close_open()
        self._emit_closed(dst_node, 0, payload, PacketKind.READ_REQUEST, False)

    # -- timer ---------------------------------------------------------------------
    def _timer_probe(self):
        # IdleTimer probe: the guarded object is the open packet; a
        # closed or timer-less packet disarms the check entirely.
        open_packet = self._open
        if open_packet is None or not open_packet.use_timer:
            return None
        return (open_packet.timeout, open_packet.last_write)

    def flush(self) -> None:
        """Force the open packet (if any) onto the FIFO."""
        self._close_open()

    # -- internals ----------------------------------------------------------------
    def _close_open(self) -> None:
        open_packet, self._open = self._open, None
        if open_packet is None:
            return
        self._emit_closed(
            open_packet.dst_node,
            open_packet.dst_paddr,
            bytes(open_packet.data),
            PacketKind.AUTOMATIC_UPDATE,
            open_packet.interrupt,
        )

    def _emit_closed(
        self,
        dst_node: int,
        dst_paddr: int,
        payload: bytes,
        kind: PacketKind,
        interrupt: bool,
    ) -> None:
        packet = Packet(
            src_node=self.node_id,
            dst_node=dst_node,
            dst_paddr=dst_paddr,
            payload=payload,
            kind=kind,
            interrupt=interrupt,
        )
        self.packets_formed += 1
        tracer = self.tracer
        # ``kind._value_`` is the member's plain value; ``kind.value`` is
        # a property call, paid even when the log is disabled.
        tracer.log(
            "packetize", "n%d formed #%d %s %dB -> n%d@%#x",
            self.node_id, packet.seq, kind._value_, packet.size, dst_node,
            dst_paddr,
        )
        # Header formation + FIFO entry take packetize_latency; AU packets
        # additionally went through the snoop/OPT lookup stage.  Enqueue
        # times are forced monotonic so a cheaper DU packet can never
        # overtake an AU packet already in the pipeline (the mux feeds
        # one FIFO, in order).  A spawned putter keeps FIFO-full
        # backpressure working while preserving order (Store putters
        # queue FIFO).
        cfg = self.config
        delay = cfg.packetize_latency
        if kind is PacketKind.AUTOMATIC_UPDATE:
            delay += cfg.snoop_opt_lookup
        sim = self.sim
        now = sim._now
        target = max(now + delay, self._last_enqueue_at)
        self._last_enqueue_at = target
        if tracer.enabled:
            tracer.complete(
                "nic.packetize",
                "pkt #%d %s %dB" % (packet.seq, kind.value, packet.size),
                now,
                target,
                track="n%d.nic.pktz" % self.node_id,
                data={"bytes": packet.size, "dst_node": dst_node},
            )
        sim.schedule_call(target - now, self._enqueue, packet)

    def _enqueue(self, packet: Packet) -> None:
        # The FIFO put is the last act of this NORMAL entry, so an idle
        # injection stage may take the packet inline (OutgoingFifo.try_put).
        if self.fifo.try_put(packet):
            return
        event = self.fifo.put(packet)
        # FIFO full: park a process on the pending put so backpressure
        # reaches the packetizer in FIFO order.
        def putter():
            yield event

        spawn(self.sim, putter(), name="fifo-put-n%d" % self.node_id)
