"""User processes: the OS-level execution context of application code.

A :class:`UserProcess` owns an address space on one node and provides
the *timed* memory operations application and library code uses:
``write``/``read``/``copy`` (which go through the MMU, charge the cache
cost model, and feed the NIC snoop), ``poll`` (flag-waiting via memory
watchpoints, charging per-check costs), and ``compute`` (pure CPU time).

All of these are generator methods — the caller's simulation process
pays the time, mirroring the fact that the libraries run entirely at
user level on the application's own CPU.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hardware.config import CacheMode
from ..hardware.node import Node
from ..sim import Event, Simulator
from ..sim.timers import TimerWheel
from .signals import SignalState
from .vm import AddressSpace

__all__ = ["UserProcess"]


class UserProcess:
    """One application process on one SHRIMP node."""

    def __init__(self, node: Node, address_space: AddressSpace, pid: int, name: str = ""):
        self.node = node
        self.space = address_space
        self.pid = pid
        self.name = name or "pid%d" % pid
        self.sim: Simulator = node.sim
        self.config = node.config
        self.signals = SignalState(self.sim)
        # Set by the VMMC layer when the process attaches an endpoint.
        self.vmmc = None
        self.poll_checks = 0
        # Cached for the one-attribute-check tracing guard on hot paths.
        self.tracer = node.tracer
        self.trace_track = "n%d.cpu.p%d" % (node.node_id, pid)
        # The causal trace context this process is currently working
        # under: ``(trace_id, parent_span_sid)`` or None.  Request
        # entry points (the KV client, RPC servers mid-dispatch) set
        # it; transport send paths read it to tag their spans and
        # stamp wire headers (repro.obs).
        self.trace_ctx = None
        # Cached likewise so libraries can gate their recovery protocols
        # on faults.enabled with one attribute check (docs/FAULTS.md).
        self.faults = node.faults
        # Deferred CPU charge (see charge()): folded into the next timed
        # operation's deadline instead of costing its own scheduler wake.
        self._lead = 0.0
        # Deadline timers for bounded polls: one wheel slot per distinct
        # deadline, cancelled O(1) on early wake (repro.sim.timers).
        self._wheel = TimerWheel(self.sim)

    def charge(self, microseconds: float) -> None:
        """Defer a pure CPU charge into this process's next timed op.

        Semantically ``yield from compute(microseconds)`` — but instead
        of sleeping now, the charge is folded into the deadline of the
        next ``read``/``write``/``copy``/``poll``/``compute``, saving
        one scheduler wake.  The deadline arithmetic repeats the
        two-sleep float operations ((now + charge) + cost), so the
        final instant is bit-exact with the separate-sleep form.

        Only valid when ALL code between the charge and the process's
        next timed operation is side-effect free (no stores, sends,
        queue operations, or span emissions): anything in between runs
        at charge time rather than after the charge elapsed.  Callers
        are responsible for that proof (docs/SIMULATOR.md).
        """
        self._lead += microseconds

    def __repr__(self) -> str:  # pragma: no cover
        return "<UserProcess %s on node %d>" % (self.name, self.node.node_id)

    # -- memory operations -------------------------------------------------
    def write(self, vaddr: int, data: bytes):
        """Timed store of ``data`` at ``vaddr``; snooped by the NIC.

        Large writes stream in ``cpu_stream_chunk`` pieces so the NIC
        sees (and packetizes) the data as it is produced, pipelining an
        AU-bound copy with the network — the base cost is charged once,
        per-byte cost per chunk.
        """
        lead = self._lead
        if lead:
            self._lead = 0.0
            if self.tracer.enabled:
                # Traced runs keep the historical shape: the deferred
                # charge sleeps on its own (exactly the compute() it
                # replaced) so span starts, durations, and sid order
                # are untouched by the wake merge.
                yield self.sim.timeout_at(self.sim.now + lead)
                lead = 0.0
        mode = self.space.cache_mode_of(vaddr)
        base, per_byte = self.config.write_rate(mode)
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "cpu.store", "store %dB" % len(data), track=self.trace_track,
                data={"bytes": len(data)},
            )
        nbytes = len(data)
        start = self.sim._now
        if lead:
            start = start + lead
        if nbytes <= self.config.cpu_stream_chunk:
            # Single-chunk fast path: one wake instead of two.  The
            # deadline is computed with the same float operations the
            # two-sleep version performs ((now + base) + n*per_byte), so
            # the landing instant is bit-exact.
            yield self.sim.timeout_at((start + base) + nbytes * per_byte)
            piece = data
            for paddr, length in self.space.translate(vaddr, nbytes, write=True):
                sub = piece[:length]
                self.node.memory.write(paddr, sub)
                self.node.nic.snoop_write(paddr, sub)
                piece = piece[length:]
        else:
            yield self.sim.timeout_at(start + base)
            yield from self._stream_out(vaddr, data, per_byte)
        if span is not None:
            self.tracer.end(span)

    def _stream_out(self, vaddr: int, data: bytes, per_byte: float):
        """Chunked store loop: charge, land bytes, snoop — per chunk."""
        chunk_size = self.config.cpu_stream_chunk
        offset = 0
        while offset < len(data):
            piece = data[offset : offset + chunk_size]
            yield self.sim.timeout(len(piece) * per_byte)
            for paddr, length in self.space.translate(
                vaddr + offset, len(piece), write=True
            ):
                sub = piece[:length]
                self.node.memory.write(paddr, sub)
                self.node.nic.snoop_write(paddr, sub)
                piece = piece[length:]
            offset += chunk_size

    def read(self, vaddr: int, nbytes: int):
        """Timed load of ``nbytes`` at ``vaddr``; returns the bytes."""
        lead = self._lead
        if lead:
            self._lead = 0.0
            if self.tracer.enabled:  # see write(): traced runs don't merge
                yield self.sim.timeout_at(self.sim.now + lead)
                lead = 0.0
        segments, mode = self.space.translate(vaddr, nbytes, with_mode=True)
        start = self.sim._now
        if lead:
            start = start + lead
        yield self.sim.timeout_at(start + self.config.read_cost(mode, nbytes))
        return b"".join(self.node.memory.read(paddr, length) for paddr, length in segments)

    def copy(self, src_vaddr: int, dst_vaddr: int, nbytes: int):
        """Timed memcpy; the destination stores are snooped, so copying
        into an AU-bound region *is* a send.

        Streams chunk by chunk (reading each chunk at its copy time, so
        a consumer copying out of a buffer still being DMA'd into sees
        the freshest bytes), charging read+write per-byte costs per
        chunk and the two base costs once.
        """
        lead = self._lead
        if lead:
            self._lead = 0.0
            if self.tracer.enabled:  # see write(): traced runs don't merge
                yield self.sim.timeout_at(self.sim.now + lead)
                lead = 0.0
        src_mode = self.space.cache_mode_of(src_vaddr)
        dst_mode = self.space.cache_mode_of(dst_vaddr)
        read_base, read_pb = self.config.read_rate(src_mode)
        write_base, write_pb = self.config.write_rate(dst_mode)
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin(
                "cpu.copy", "copy %dB" % nbytes, track=self.trace_track,
                data={"bytes": nbytes},
            )
        chunk_size = self.config.cpu_stream_chunk
        start = self.sim._now
        if lead:
            start = start + lead
        if nbytes <= chunk_size:
            # Single-chunk fast path, bit-exact with the two-sleep form.
            yield self.sim.timeout_at(
                (start + (read_base + write_base))
                + nbytes * (read_pb + write_pb))
        else:
            yield self.sim.timeout_at(start + (read_base + write_base))
        offset = 0
        while offset < nbytes:
            length = min(chunk_size, nbytes - offset)
            if offset or nbytes > chunk_size:
                yield self.sim.timeout(length * (read_pb + write_pb))
            data = b"".join(
                self.node.memory.read(paddr, seg_len)
                for paddr, seg_len in self.space.translate(
                    src_vaddr + offset, length, write=False
                )
            )
            piece = data
            for paddr, seg_len in self.space.translate(
                dst_vaddr + offset, length, write=True
            ):
                sub = piece[:seg_len]
                self.node.memory.write(paddr, sub)
                self.node.nic.snoop_write(paddr, sub)
                piece = piece[seg_len:]
            offset += length
        if span is not None:
            self.tracer.end(span)

    def compute(self, microseconds: float, priority: Optional[int] = None):
        """Pure CPU time (library bookkeeping, marshaling logic, ...).

        With ``priority`` set *and* the node's CPU scheduler enabled
        (:meth:`~repro.hardware.node.Node.enable_cpu`), the time is
        charged while holding one CPU slot, so concurrent handlers on
        the node contend in (priority, FIFO) order.  Either condition
        absent, this is the historical uncontended timeout —
        byte-identical to the pre-scheduler model.
        """
        cpu = self.node.cpu
        if cpu is None or priority is None:
            lead = self._lead
            if lead:
                self._lead = 0.0
                if self.tracer.enabled:  # see write(): traced, no merge
                    yield self.sim.timeout_at(self.sim.now + lead)
                    lead = 0.0
            start = self.sim.now
            if lead:
                start = start + lead
            yield self.sim.timeout_at(start + microseconds)
            return
        lead = self._lead
        if lead:
            # Contended path: pay the deferred charge as its own sleep
            # (exactly what the caller's separate compute() would have
            # cost) before queueing for a CPU slot.
            self._lead = 0.0
            yield self.sim.timeout_at(self.sim.now + lead)
        req = cpu.request(priority)
        yield req
        try:
            yield self.sim.timeout(microseconds)
        finally:
            cpu.release(req)

    # -- polling -----------------------------------------------------------------
    def poll(
        self,
        vaddr: int,
        nbytes: int,
        predicate: Callable[[bytes], bool],
        deadline: Optional[float] = None,
    ):
        """Wait until ``predicate(bytes at vaddr)`` holds; returns the bytes.

        Models a user-level polling loop.  Each check charges a load of
        the polled bytes plus a compare; between checks the process is
        woken by memory watchpoints rather than timed spinning, so the
        simulated *cost structure* matches polling while the event count
        stays proportional to actual writes (DESIGN.md decision on
        polling).  Returns None if ``deadline`` (absolute sim time)
        passes first.
        """
        segments, mode = self.space.translate(vaddr, nbytes, with_mode=True)
        check_cost = (
            self.config.read_cost(mode, nbytes) + self.config.costs.vmmc_poll_check
        )
        memory = self.node.memory
        lead = self._lead
        if lead:
            self._lead = 0.0
            if self.tracer.enabled:  # see write(): traced runs don't merge
                yield self.sim.timeout_at(self.sim.now + lead)
                lead = 0.0
        sim = self.sim
        charged = False
        while True:
            self.poll_checks += 1
            span = None
            if self.tracer.enabled:
                span = self.tracer.begin(
                    "cpu.poll", "poll check", track=self.trace_track,
                    data={"bytes": nbytes},
                )
            if charged:
                charged = False  # the watch wake already carried the charge
            elif lead:
                yield sim.timeout_at((sim.now + lead) + check_cost)
                lead = 0.0
            else:
                yield sim.timeout(check_cost)
            data = b"".join(memory.read(paddr, length) for paddr, length in segments)
            hit = predicate(data)
            if span is not None:
                self.tracer.end(span, data={"hit": hit})
            if hit:
                return data
            if deadline is not None and self.sim.now >= deadline:
                return None
            woke = Event(sim, name="poll-wake")
            dl_handle = None
            fast = deadline is None and not self.tracer.enabled
            if fast:
                # Merged wake: the watchpoint schedules the wake event
                # to succeed at (write instant + check cost), so one
                # scheduler entry lands the process directly past the
                # post-wake check charge — bit-exact with
                # wake-then-charge, one entry and one resume cheaper.
                # The fired guard keeps further writes in the charge
                # window from re-arming it.  Traced polls keep the
                # two-step shape so check spans are unchanged.
                state = [False]

                def _wake(p, n, _woke=woke, _state=state):
                    if _state[0]:
                        return
                    _state[0] = True
                    _woke.succeed_later(check_cost)

                watches = [
                    memory.add_watch(paddr, length, _wake)
                    for paddr, length in segments
                ]
                wait = woke
            else:
                watches = [
                    memory.add_watch(
                        paddr, length,
                        lambda p, n: None if woke.triggered else woke.succeed(None),
                    )
                    for paddr, length in segments
                ]
                if deadline is not None:
                    # One wheel slot per distinct deadline: re-arms on
                    # later loop iterations share the first iteration's
                    # scheduler entry, and the cancel after the yield
                    # keeps early-wake iterations from leaving dead
                    # deadline dispatches behind.
                    expired = Event(sim, name="poll-deadline")
                    dl_handle = self._wheel.at(deadline, expired.succeed, None)
                    wait = sim.any_of([woke, expired])
                else:
                    wait = woke
            # Re-check once before sleeping: a write may have landed
            # between our read above and the watch registration.
            data = b"".join(memory.read(paddr, length) for paddr, length in segments)
            if predicate(data):
                for watch in watches:
                    memory.remove_watch(watch)
                return data
            yield wait
            for watch in watches:
                memory.remove_watch(watch)
            if dl_handle is not None:
                self._wheel.cancel(dl_handle)
            charged = fast

    def poll_flag(self, vaddr: int, expected: bytes, deadline: Optional[float] = None):
        """Poll until the bytes at ``vaddr`` equal ``expected``."""
        result = yield from self.poll(
            vaddr, len(expected), lambda data: data == expected, deadline
        )
        return result

    # -- zero-cost debug access -----------------------------------------------------
    def peek(self, vaddr: int, nbytes: int) -> bytes:
        """Untimed read for test assertions."""
        segments = self.space.translate(vaddr, nbytes, write=False)
        return b"".join(self.node.memory.read(p, length) for p, length in segments)

    def poke(self, vaddr: int, data: bytes) -> None:
        """Untimed, un-snooped write for test setup."""
        segments = self.space.translate(vaddr, len(data), write=True)
        offset = 0
        for paddr, length in segments:
            self.node.memory.write(paddr, data[offset : offset + length])
            offset += length
