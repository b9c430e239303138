"""The NIC's two DMA engines.

*Deliberate Update Engine* (outgoing): interprets the two-access
transfer-initiation sequence, DMAs the source data out of main memory
over the EISA bus, and feeds it to the packetizer in chunks.

*Incoming DMA Engine*: takes packets from the NIC chip, checks the
Incoming Page Table, and DMAs the payload into main memory over the
EISA bus.  Receiving into a non-enabled page freezes the receive
datapath and interrupts the node CPU (Section 3.2).

When the machine tracer is enabled each engine wraps its work in a
span — ``nic.du`` on track ``n<id>.nic.du``, ``nic.dma_in`` on
``n<id>.nic.in`` — guarded by one attribute check when disabled
(docs/OBSERVABILITY.md).

Both engines share the node's one EISA bus, so heavy receive traffic
slows concurrent deliberate-update sends on the same node — the
'aggregate DMA bandwidth of the shared EISA and Xpress buses' limit
that caps end-to-end bandwidth at ~23 MB/s.

Each engine is serial and fixed-function, and is modelled as a state
machine rather than a simulation process: one method per timed step,
chained through scheduler callbacks, with the item in progress held in
attributes.  An engine with nothing queued *parks*; the next put into
its queue takes the item and wakes it (docs/SIMULATOR.md,
"Callback-driven NIC engines").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ...sim import (
    BandwidthChannel,
    Event,
    FaultInjector,
    FaultKind,
    FaultSite,
    Simulator,
    Store,
    Tracer,
    spawn,
)
from ...sim.core import URGENT
from ..config import MachineConfig
from ..memory import PhysicalMemory
from ..router.packet import (READ_REPLY_HEADER, PacketKind,
                             decode_read_request, encode_read_reply_header)
from .arbiter import Arbiter, INCOMING_PRIORITY
from .ipt import IncomingPageTable
from .opt import OutgoingPageTable
from .packetizer import Packetizer

__all__ = ["DUCommand", "DeliberateUpdateEngine", "IncomingDmaEngine", "ReceiveFault"]


@dataclass
class DUCommand:
    """One decoded transfer-initiation sequence.

    ``src_segments`` are physical (address, length) pieces of the source
    buffer, in order (the kernel's page tables produced them; user pages
    need not be physically contiguous).  ``opt_base``/``offset`` select
    the destination through the Outgoing Page Table's import region.
    ``done`` fires when the source has been fully read — the point at
    which a *blocking* deliberate-update send returns (the source buffer
    is then reusable; delivery completes asynchronously).
    """

    src_segments: List[Tuple[int, int]]
    opt_base: int
    offset: int
    size: int
    interrupt: bool
    done: Event

    def __post_init__(self) -> None:
        total = sum(length for _, length in self.src_segments)
        if total != self.size:
            raise ValueError(
                "source segments cover %d bytes but size is %d" % (total, self.size)
            )


@dataclass
class ReceiveFault:
    """Details handed to the kernel when the receive datapath freezes."""

    node_id: int
    paddr: int
    size: int
    src_node: int


class _SegmentReader:
    """Walks a DU command's physical source segments chunk by chunk."""

    def __init__(self, memory: PhysicalMemory, segments: List[Tuple[int, int]]):
        self.memory = memory
        self.segments = segments
        self.index = 0
        self.within = 0

    def read(self, nbytes: int) -> bytes:
        out = bytearray()
        while nbytes > 0 and self.index < len(self.segments):
            paddr, length = self.segments[self.index]
            available = length - self.within
            take = min(nbytes, available)
            out += self.memory.read(paddr + self.within, take)
            self.within += take
            nbytes -= take
            if self.within == length:
                self.index += 1
                self.within = 0
        if nbytes > 0:
            raise ValueError("source segments exhausted early")
        return bytes(out)


class DeliberateUpdateEngine:
    """Drains the DU command queue, one chunked DMA read at a time."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        memory: PhysicalMemory,
        eisa: BandwidthChannel,
        opt: OutgoingPageTable,
        packetizer: Packetizer,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.memory = memory
        self.eisa = eisa
        self.opt = opt
        self.packetizer = packetizer
        self.tracer = tracer or Tracer(sim)
        # Stored as ``injector`` engine-wide: the incoming engine's
        # ``faults`` name is already its receive-fault counter.
        self.injector = faults or FaultInjector(sim)
        self.commands: Store = Store(sim, name="du-commands-n%d" % node_id)
        self.transfers_done = 0
        self.bytes_sent = 0
        self.stalls = 0
        self.aborts = 0
        # Occupancy accounting for the metrics registry: time from
        # dequeuing a command to resolving it (done or aborted).  The
        # engine is serial, so busy_time/now is its utilization.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        # The command in progress: its span, source reader, and the
        # destination offset / bytes still to send.
        self._command: Optional[DUCommand] = None
        self._span = None
        self._reader: Optional[_SegmentReader] = None
        self._offset = 0
        self._remaining = 0
        self._parked = False
        # First look at the queue in a t=0 entry, as a process would.
        sim.schedule_call(0.0, self._next)

    def submit(self, command: DUCommand) -> None:
        """Queue a decoded initiation sequence (called at PIO-decode time).

        An idle engine takes the command now and starts it in an URGENT
        entry: the wake a getter waiting on the queue would have had.
        """
        commands = self.commands
        if not commands.try_put(command):
            raise RuntimeError("DU command queue unexpectedly full")
        if self._parked:
            self._parked = False
            self.sim.schedule_call(0.0, self._start, commands.try_get(),
                                   priority=URGENT)

    def metrics_snapshot(self, now: Optional[float] = None) -> dict:
        """Utilization counters for the metrics registry."""
        now = self.sim.now if now is None else now
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return {
            "name": "du-engine-n%d" % self.node_id,
            "kind": "engine",
            "busy_time": busy,
            "count": self.transfers_done,
            "bytes": self.bytes_sent,
        }

    def _next(self) -> None:
        """Start the next queued command, or park until one is submitted."""
        command = self.commands.try_get()
        if command is None:
            self._parked = True
        else:
            self._start(command)

    def _start(self, command: DUCommand) -> None:
        self._busy_since = self.sim._now
        if self.injector.enabled:
            fault = self.injector.draw(FaultSite.NIC_DU, node=self.node_id)
            if fault is not None:
                if fault.kind == FaultKind.ABORT:
                    # The engine rejects the whole command before any
                    # chunk is emitted; the initiator's done event
                    # fails with a typed error instead of hanging.
                    from ...vmmc.errors import VmmcTransferError

                    self.aborts += 1
                    self.tracer.log(
                        "fault",
                        "n%d DU command %dB ABORTED by fault",
                        self.node_id, command.size,
                    )
                    command.done.fail(VmmcTransferError(
                        "deliberate update of %d bytes aborted by the "
                        "DU engine on node %d" % (command.size, self.node_id)
                    ))
                    self.busy_time += self.sim._now - self._busy_since
                    self._busy_since = None
                    self._next()
                    return
                self.stalls += 1
                self.sim.schedule_call(fault.params.get("stall_us", 50.0),
                                       self._begin, command)
                return
        self._begin(command)

    def _begin(self, command: DUCommand) -> None:
        cfg = self.config
        sim = self.sim
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "nic.du", "du %dB" % command.size,
                track="n%d.nic.du" % self.node_id,
                data={"bytes": command.size},
            )
        self._command = command
        self._span = span
        self._reader = _SegmentReader(self.memory, command.src_segments)
        self._offset = command.offset
        self._remaining = command.size
        if command.size <= 0:  # degenerate command: charge setup alone
            sim.schedule_call(cfg.du_engine_setup, self._finish)
        else:
            # Engine setup and the first chunk's read setup are
            # back-to-back with no side effects between them: one
            # entry, bit-exact deadline arithmetic.
            sim.schedule_at((sim._now + cfg.du_engine_setup)
                            + cfg.du_dma_read_setup, self._read_chunk)

    def _read_chunk(self) -> None:
        # Chunk at both the packet-size bound and destination page
        # boundaries so each packet maps through one OPT entry.
        cfg = self.config
        page_room = cfg.page_size - (self._offset % cfg.page_size)
        chunk = min(self._remaining, cfg.max_packet_payload, page_room)
        self.eisa.transfer_call(chunk, self._emit_chunk, chunk)

    def _emit_chunk(self, chunk: int) -> None:
        cfg = self.config
        command = self._command
        offset = self._offset
        data = self._reader.read(chunk)
        entry = self.opt.proxy_entry(command.opt_base + offset // cfg.page_size)
        dst_paddr = entry.dst_paddr(cfg.page_size, offset % cfg.page_size)
        last = self._remaining == chunk
        self.packetizer.du_emit(
            entry.dst_node,
            dst_paddr,
            data,
            interrupt=command.interrupt and last,
        )
        self._offset = offset + chunk
        self._remaining -= chunk
        self.bytes_sent += chunk
        if last:
            self._finish()
        else:
            self.sim.schedule_call(cfg.du_dma_read_setup, self._read_chunk)

    def _finish(self) -> None:
        command = self._command
        self._command = self._reader = None
        self.transfers_done += 1
        self.busy_time += self.sim._now - self._busy_since
        self._busy_since = None
        if self._span is not None:
            self.tracer.end(self._span)
        command.done.succeed()
        self._next()


class IncomingDmaEngine:
    """Moves arriving packets from the NIC chip into main memory."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        node_id: int,
        memory: PhysicalMemory,
        eisa: BandwidthChannel,
        ipt: IncomingPageTable,
        arbiter: Arbiter,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.memory = memory
        self.eisa = eisa
        self.ipt = ipt
        self.arbiter = arbiter
        self.tracer = tracer or Tracer(sim)
        self.injector = faults or FaultInjector(sim)
        self.stalls = 0
        self.incoming: Store = Store(
            sim, capacity=config.incoming_queue_packets, name="incoming-n%d" % node_id
        )
        # The node's packetizer, wired by NetworkInterface after both
        # exist: READ_REQUEST replies leave through the normal outgoing
        # datapath as deliberate-update packets.
        self.packetizer = None
        # The on-card region shadow, wired by NetworkInterface: serves
        # READ_REQUESTs for registered pages without touching the host
        # bus, and is kept coherent by this engine's own landing writes.
        self.shadow = None
        self.read_requests_served = 0
        self.read_requests_shadowed = 0
        self.read_requests_dropped = 0
        self.read_requests_denied = 0
        self.read_reply_bytes = 0
        # Kernel hooks, installed at boot:
        self.fault_handler: Optional[Callable[[ReceiveFault], None]] = None
        self.notify_handler: Optional[Callable[[int, int], None]] = None
        self._discard_pending = False
        self.frozen = False
        self.packets_received = 0
        self.bytes_received = 0
        self.faults = 0
        self.packets_discarded = 0
        # The packet in progress and its span.  A landing also keeps
        # whether it took the IPT-hit fast path; a remote-read serve its
        # decoded request, shadow bytes (None: served from memory),
        # bytes sent so far and the chunks read.
        self._packet = None
        self._span = None
        self._fast = False
        self._request = None
        self._shadowed: Optional[bytes] = None
        self._read_offset = 0
        self._read_chunks: List[bytes] = []
        self._parked = False
        # First look at the queue in a t=0 entry, as a process would.
        sim.schedule_call(0.0, self._next)

    def deliver(self, packet) -> None:
        """Entry point wired to the mesh: a packet reached this NIC.

        Called only as the last act of ``MeshBackplane._deliver``, a
        NORMAL scheduler entry, so an idle engine takes the packet and
        runs inline: the URGENT wake it replaces would have been the
        next entry dispatched (docs/SIMULATOR.md).
        """
        incoming = self.incoming
        if self._parked:
            # Parked means the queue is empty: pass the packet through.
            self._parked = False
            self._take(incoming.hand_through(packet))
            return
        if incoming.try_put(packet):
            return
        # Queue full: fall back to a blocking putter process so the
        # packet enters the store in FIFO order once space frees.
        def putter():
            event = incoming.put(packet)
            if self._parked:
                # The queue drained meanwhile and the put went straight
                # in: wake the engine as a waiting getter would be.
                self._parked = False
                self.sim.schedule_call(0.0, self._take, incoming.try_get(),
                                       priority=URGENT)
            yield event

        spawn(self.sim, putter(), name="nic-recv-n%d" % self.node_id)

    def unfreeze(self, discard: bool = False) -> None:
        """Kernel action: resume the receive datapath after a fault.

        With ``discard=True`` the offending packet is dropped instead of
        retried — the kernel's recourse against traffic for a mapping it
        will not re-enable (e.g. a stale sender after an unexport).
        """
        if not self.frozen:
            raise RuntimeError("receive datapath of node %d is not frozen" % self.node_id)
        self.frozen = False
        self._discard_pending = discard
        self.sim.schedule_call(0.0, self._unfrozen, priority=URGENT)

    # -- the engine loop ------------------------------------------------------
    def _next(self) -> None:
        """Take the next buffered packet, or park until one arrives."""
        packet = self.incoming.try_get()
        if packet is None:
            self._parked = True
        else:
            self._take(packet)

    def _take(self, packet) -> None:
        if self.injector.enabled:
            fault = self.injector.draw(FaultSite.NIC_DMA_IN, node=self.node_id)
            if fault is not None:
                # The landing engine hiccups (bus retry storm, slow
                # card): the packet sits in the incoming queue a
                # while longer.  Latency-only; data is untouched.
                self.stalls += 1
                self.sim.schedule_call(fault.params.get("stall_us", 50.0),
                                       self._dispatch, packet)
                return
        self._dispatch(packet)

    def _dispatch(self, packet) -> None:
        self._packet = packet
        if packet.kind is PacketKind.READ_REQUEST:
            self.sim.schedule_call(self.config.ipt_lookup, self._serve_read)
        elif self.arbiter.acquire(INCOMING_PRIORITY, self._land):
            self._land()

    # -- landing a store --------------------------------------------------------
    def _land(self) -> None:
        cfg = self.config
        sim = self.sim
        packet = self._packet
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "nic.dma_in", "land #%d %dB" % (packet.seq, packet.size),
                track="n%d.nic.in" % self.node_id,
                data={"bytes": packet.size, "src_node": packet.src_node},
            )
        self._span = span
        # Steady-state fast path: the IPT already enables the range,
        # so the lookup and DMA-setup delays collapse into a single
        # entry.  The deadline repeats the two-step float arithmetic
        # ((now + lookup) + setup), so the landing instant is
        # bit-exact; the check is re-run after it in case the kernel
        # revoked the mapping meanwhile (the setup charge is not
        # repeated on that rare fault path).
        self._fast = self.ipt.check_range(packet.dst_paddr, packet.size)
        if self._fast:
            sim.schedule_at((sim._now + cfg.ipt_lookup) + cfg.incoming_dma_setup,
                            self._land_checked)
        else:
            sim.schedule_call(cfg.ipt_lookup, self._land_checked)

    def _land_checked(self) -> None:
        packet = self._packet
        if not self.ipt.check_range(packet.dst_paddr, packet.size):
            self._freeze()
        elif self._fast:
            # The setup was charged up front: the step _land_dma takes.
            self.eisa.transfer_call(packet.size, self._landed)
        else:
            self.sim.schedule_call(self.config.incoming_dma_setup, self._land_dma)

    def _freeze(self) -> None:
        # Page not enabled: freeze the receive datapath and interrupt
        # the CPU.  We stay frozen until the kernel calls unfreeze();
        # then the check is retried (the kernel may have enabled the
        # page, or discarded us via a new mapping — retry models the
        # hardware re-walking the IPT).
        packet = self._packet
        self.frozen = True
        self.faults += 1
        fault = ReceiveFault(self.node_id, packet.dst_paddr, packet.size, packet.src_node)
        self.tracer.log("fault", "n%d receive fault at %#x",
                        self.node_id, packet.dst_paddr)
        if self.fault_handler is None:
            self.arbiter.release()
            raise RuntimeError(
                "receive fault on node %d with no kernel handler: %r"
                % (self.node_id, fault)
            )
        self.sim.schedule_call(self.config.interrupt_latency, self.fault_handler, fault)

    def _unfrozen(self) -> None:
        if not self._discard_pending:
            self._land_checked()
            return
        self._discard_pending = False
        self.packets_discarded += 1
        if self._span is not None:
            self.tracer.end(self._span, data={"discarded": True})
        self.arbiter.release()
        self._next()

    def _land_dma(self) -> None:
        self.eisa.transfer_call(self._packet.size, self._landed)

    def _landed(self) -> None:
        cfg = self.config
        packet = self._packet
        self.memory.write(packet.dst_paddr, packet.payload)
        shadow = self.shadow
        if shadow is not None and shadow.pages:
            # The card mirrors its own landing DMA into the shadow,
            # the second of the two datapaths that keep it coherent.
            shadow.write(packet.dst_paddr, packet.payload)
        self.packets_received += 1
        self.bytes_received += packet.size
        self.tracer.log(
            "dma-in", "n%d landed #%d %dB at %#x",
            self.node_id, packet.seq, packet.size, packet.dst_paddr,
        )
        if self._span is not None:
            self.tracer.end(self._span)
        self.arbiter.release()
        first_page = packet.dst_paddr // cfg.page_size
        if packet.interrupt and self.ipt.wants_interrupt(first_page):
            # Sender-specified AND receiver-specified flags both set:
            # raise the notification interrupt (Section 3.2).
            if self.notify_handler is not None:
                self.sim.schedule_call(
                    cfg.interrupt_latency, self.notify_handler, first_page, packet.size
                )
        self._next()

    # -- serving a one-sided read -------------------------------------------------
    def _serve_read(self) -> None:
        """Serve one READ_REQUEST entirely on the NIC — no CPU involved.

        Runs after the IPT-lookup charge.  The descriptor is validated
        (bad length, magic, or CRC drops the request; the reader's
        bounded completion poll then expires and it falls back to its
        RPC path) and the source range is checked against the Incoming
        Page Table like any remote access; both are card-local, so no
        bus grant is taken for them.  If the range is resident in the
        on-card region shadow the reply is assembled straight from NIC
        memory — the host bus and its arbiter are never touched, and
        the target host cannot even observe the read.  Otherwise the
        data is DMA'd out of main memory chunk by chunk under an
        arbiter grant.  Either way the reply leaves as ordinary
        deliberate-update packets addressed to the reply buffer named
        in the descriptor, completion header *last*: per-pair in-order
        delivery guarantees the data has landed when the reader's poll
        sees the header (docs/ONESIDED.md).  A denied or malformed
        request is dropped rather than frozen — unlike a landing write,
        nothing was received that the kernel could re-enable a page
        for.
        """
        packet = self._packet
        request = decode_read_request(packet.payload)
        if request is None:
            self.read_requests_dropped += 1
            self.tracer.log(
                "dma-in", "n%d dropped malformed read request from n%d",
                self.node_id, packet.src_node,
            )
            self._next()
            return
        span = None
        if self.tracer.enabled:
            data = {"bytes": request.nbytes, "src_node": packet.src_node}
            if request.trace_id:
                data["tid"] = request.trace_id
                data["xparent"] = request.parent_sid
            span = self.tracer.begin(
                "nic.remote_read", "rread %dB" % request.nbytes,
                track="n%d.nic.rr" % self.node_id, data=data,
            )
        self._span = span
        if not self.ipt.check_range(request.src_paddr, request.nbytes):
            self.read_requests_denied += 1
            self.tracer.log(
                "dma-in", "n%d denied read request at %#x (+%d) from n%d",
                self.node_id, request.src_paddr, request.nbytes,
                packet.src_node,
            )
            if span is not None:
                self.tracer.end(span, data={"denied": True})
            self._next()
            return
        self._request = request
        self._read_offset = 0
        self._read_chunks = []
        self._shadowed = (self.shadow.read(request.src_paddr, request.nbytes)
                          if self.shadow is not None else None)
        if self._shadowed is not None:
            # Shadow hit: the snoop logic already carried these bytes
            # past the card when they were stored, so the serve is a
            # read of on-card DRAM — no arbiter grant, no EISA cycle.
            self._read_step()
        elif self.arbiter.acquire(INCOMING_PRIORITY, self._read_step):
            self._read_step()

    def _read_step(self) -> None:
        """Read the next reply chunk, from the shadow or from memory."""
        cfg = self.config
        chunk = min(self._request.nbytes - self._read_offset,
                    cfg.max_packet_payload)
        if self._shadowed is not None:
            self.sim.schedule_call(
                cfg.nic_shadow_read_setup + cfg.nic_shadow_read_rate * chunk,
                self._read_emit, chunk)
        else:
            self.sim.schedule_call(cfg.du_dma_read_setup, self._read_fetch,
                                   chunk)

    def _read_fetch(self, chunk: int) -> None:
        self.eisa.transfer_call(chunk, self._read_emit, chunk)

    def _read_emit(self, chunk: int) -> None:
        packet = self._packet
        request = self._request
        offset = self._read_offset
        if self._shadowed is not None:
            data = self._shadowed[offset:offset + chunk]
        else:
            data = self.memory.read(request.src_paddr + offset, chunk)
        # The completion header (seq, length, CRC, status) is
        # synthesized on the card from the data streaming past — it is
        # never fetched from host memory.
        if READ_REPLY_HEADER.size + request.nbytes <= self.config.max_packet_payload:
            # Header and data ride one packet, delivered (and written
            # to the reply buffer) atomically — the common case for the
            # small reads the bypass is tuned for.
            self.packetizer.du_emit(
                packet.src_node, request.reply_paddr,
                encode_read_reply_header(request.seq, data) + data,
                interrupt=False,
            )
            self._read_done()
            return
        self.packetizer.du_emit(
            packet.src_node,
            request.reply_paddr + READ_REPLY_HEADER.size + offset, data,
            interrupt=False,
        )
        self._read_chunks.append(data)
        self._read_offset = offset + chunk
        if self._read_offset < request.nbytes:
            self._read_step()
            return
        header = encode_read_reply_header(request.seq,
                                          b"".join(self._read_chunks))
        self.packetizer.du_emit(
            packet.src_node, request.reply_paddr, header, interrupt=False,
        )
        self._read_done()

    def _read_done(self) -> None:
        packet = self._packet
        request = self._request
        shadow_hit = self._shadowed is not None
        if shadow_hit:
            self.read_requests_shadowed += 1
        else:
            self.arbiter.release()
        self._request = self._shadowed = None
        self._read_chunks = []
        self.read_requests_served += 1
        self.read_reply_bytes += request.nbytes
        self.tracer.log(
            "dma-in", "n%d served read request %#x +%d -> n%d%s",
            self.node_id, request.src_paddr, request.nbytes,
            packet.src_node, " (shadow)" if shadow_hit else "",
        )
        if self._span is not None:
            self.tracer.end(self._span, data={"shadow": shadow_hit})
        self._next()
