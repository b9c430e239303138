"""NIC timeline goldens: traced hardware runs through the NIC's slow paths.

The workload goldens (tests/workload/test_zero_regression.py) are
untraced SRPC runs, so they never reach the arbiter contention,
backpressure, receive-fault, remote-read and fault-plan paths of the
NIC engines.  Each case here drives a small traced machine, hand-wired
below the VMMC layer, through one of those paths and pins, byte for
byte:

* every NIC and bus span (category, track, name, start, end);
* the landing instants seen by memory watches on the receive buffers,
  and the kernel-hook (fault / notify interrupt) instants;
* ``utilization_report()`` and ``stats()``.

Packet sequence numbers come from a process-wide counter, so span names
are rewritten relative to the first packet of the case.

Regenerate (only for an intended timing change, and say so in the
commit)::

    PYTHONPATH=src python tests/hardware/test_nic_timeline_golden.py
"""

import pathlib
import re

import pytest

from repro.hardware import CacheMode, Machine, MachineConfig
from repro.hardware.nic import OPTEntry
from repro.hardware.router.packet import (Packet, PacketKind,
                                          encode_read_request)
from repro.sim import Fault, FaultKind, FaultPlan, FaultSite, spawn

GOLDENS = pathlib.Path(__file__).parent / "goldens" / "nic_timeline"
PAGE = 4096
WT = CacheMode.WRITE_THROUGH
_SEQ = re.compile(r"#(\d+)")


class Recorder:
    """Collects the observable timeline of one traced machine."""

    def __init__(self, config=None, fault_plan=None):
        self.machine = Machine(config, trace=True, fault_plan=fault_plan)
        self.sim = self.machine.sim
        self.events = []
        # The next packet's seq, so names can be made case-relative.
        self.seq_base = Packet(0, 0, 0, b"x", PacketKind.AUTOMATIC_UPDATE).seq

    def node(self, node_id):
        return self.machine.node(node_id)

    def watch(self, node_id, paddr, nbytes):
        """Record every write landing in ``[paddr, paddr+nbytes)``."""
        def landed(addr, n, node_id=node_id):
            self.events.append("land n%d %#x +%d @ %r"
                               % (node_id, addr, n, self.sim.now))
        self.node(node_id).memory.add_watch(paddr, nbytes, landed)

    def note(self, text):
        self.events.append("%s @ %r" % (text, self.sim.now))

    def _rel(self, text):
        return _SEQ.sub(lambda m: "#%d" % (int(m.group(1)) - self.seq_base),
                        text)

    def render(self):
        self.machine.run()
        lines = ["now %r" % self.sim.now, "", "[spans]"]
        for span in self.machine.tracer.spans:
            if span.category.startswith("nic.") or span.category == "bus":
                lines.append("%s | %s | %s | %r | %r" % (
                    span.category, span.track, self._rel(span.name),
                    span.start, span.end))
        lines += ["", "[events]"] + [self._rel(e) for e in self.events]
        lines += ["", "[utilization]", self.machine.utilization_report()]
        stats = self.machine.stats()
        lines += ["", "[stats]"]
        for key in sorted(stats):
            if key == "nodes":
                for node_id, counters in sorted(stats["nodes"].items()):
                    lines.append("node %d %r" % (node_id,
                                                 sorted(counters.items())))
            else:
                lines.append("%s %r" % (key, stats[key]))
        return "\n".join(lines) + "\n"


def _bind_au(rec, src, src_page, dst, dst_page, **flags):
    rec.node(src).nic.opt.bind_page(
        src_page, OPTEntry(dst_node=dst, dst_page=dst_page, **flags))
    rec.node(dst).nic.ipt.enable(dst_page)


def _du(rec, node_id, segments, proxy, offset, size, interrupt=False):
    """Generator: one deliberate update, waiting on its done event."""
    done = rec.node(node_id).nic.initiate_deliberate_update(
        segments, proxy, offset, size, interrupt=interrupt)
    try:
        yield done
        rec.note("n%d du %dB done" % (node_id, size))
    except Exception as exc:  # the nic.du abort fault
        rec.note("n%d du %dB failed: %s" % (node_id, size,
                                            type(exc).__name__))


def case_au_timer_combining():
    """Consecutive AU stores combine into one open packet that the
    combining timer closes (no explicit flush); a non-consecutive store
    closes the first packet early."""
    rec = Recorder()
    _bind_au(rec, 0, 16, 1, 32, timer_us=3.0)
    rec.watch(1, 32 * PAGE, PAGE)

    def writer():
        for i in range(6):
            yield from rec.node(0).cpu_write(16 * PAGE + 4 * i,
                                             bytes([i + 1] * 4), WT)
        yield from rec.node(0).cpu_write(16 * PAGE + 512, b"\x09" * 8, WT)
        yield rec.sim.timeout(20.0)
        yield from rec.node(0).cpu_write(16 * PAGE + 1024, b"\x07" * 4, WT)

    spawn(rec.sim, writer())
    return rec


def case_du_multichunk_page_cross():
    """A 3000-byte DU from two physical source segments whose
    destination starts 3000 bytes into a page: chunks split at the
    page boundary and at max_packet_payload, last chunk interrupts."""
    rec = Recorder()
    dst = rec.node(1)
    dst.nic.ipt.enable(40, interrupt=True)
    dst.nic.ipt.enable(41, interrupt=True)
    dst.nic.notify_handler = lambda page, size: rec.note(
        "n1 notify page %d %dB" % (page, size))
    rec.watch(1, 40 * PAGE, 2 * PAGE)
    proxy = rec.node(0).nic.opt.allocate_proxy(
        [OPTEntry(dst_node=1, dst_page=40), OPTEntry(dst_node=1, dst_page=41)])
    rec.node(0).poke(8 * PAGE + 2000, bytes(range(256)) * 4)
    rec.node(0).poke(20 * PAGE, bytes(range(255, -1, -1)) * 8)
    segments = [(8 * PAGE + 2000, 1000), (20 * PAGE, 2000)]
    spawn(rec.sim, _du(rec, 0, segments, proxy, 3000, 3000, interrupt=True))
    return rec


def case_arbiter_contention():
    """Node 1 injects a DU stream while node 0 floods it with AU
    packets: incoming landings win the arbiter, outgoing injections
    wait for grants."""
    rec = Recorder()
    _bind_au(rec, 0, 16, 1, 48, use_timer=False)
    rec.watch(1, 48 * PAGE, PAGE)
    rec.node(2).nic.ipt.enable(60)
    rec.node(2).nic.ipt.enable(61)
    rec.watch(2, 60 * PAGE, 2 * PAGE)
    proxy = rec.node(1).nic.opt.allocate_proxy(
        [OPTEntry(dst_node=2, dst_page=60), OPTEntry(dst_node=2, dst_page=61)])
    rec.node(1).poke(8 * PAGE, bytes(range(256)) * 32)

    def flooder():
        for i in range(12):
            yield from rec.node(0).cpu_write(16 * PAGE + (i % 4) * 1024,
                                             bytes([i]) * 1024, WT)
        rec.node(0).nic.packetizer.flush()

    def sender():
        yield rec.sim.timeout(30.0)
        yield from _du(rec, 1, [(8 * PAGE, 2 * PAGE)], proxy, 0, 2 * PAGE)
        yield from _du(rec, 1, [(8 * PAGE, 512)], proxy, 100, 512)

    spawn(rec.sim, flooder())
    spawn(rec.sim, sender())
    return rec


def case_backpressure():
    """Two nodes stream DUs into node 2 with a two-packet outgoing FIFO
    and a one-packet incoming queue: both blocking-putter paths fire."""
    rec = Recorder(MachineConfig(outgoing_fifo_packets=2,
                                 incoming_queue_packets=1))
    for page in range(70, 74):
        rec.node(2).nic.ipt.enable(page)
    rec.watch(2, 70 * PAGE, 4 * PAGE)
    for src, first in ((0, 70), (1, 72)):
        proxy = rec.node(src).nic.opt.allocate_proxy(
            [OPTEntry(dst_node=2, dst_page=first),
             OPTEntry(dst_node=2, dst_page=first + 1)])
        rec.node(src).poke(8 * PAGE, bytes([src + 1]) * (2 * PAGE))
        spawn(rec.sim, _du(rec, src, [(8 * PAGE, 2 * PAGE)], proxy, 0,
                           2 * PAGE))
    # A burst of uncombined AU words from node 0 to node 3 fills the
    # two-packet FIFO behind the DU chunks.
    _bind_au(rec, 0, 16, 3, 90, combining=False)
    rec.watch(3, 90 * PAGE, PAGE)

    def words():
        yield from rec.node(0).cpu_write(16 * PAGE, bytes(range(32)), WT)

    spawn(rec.sim, words())
    return rec


def case_receive_fault():
    """Two receive faults on node 1: the first is fixed by enabling the
    page and unfreezing, the second is discarded; a later packet still
    lands."""
    rec = Recorder()
    nic1 = rec.node(1).nic
    rec.node(0).nic.opt.bind_page(16, OPTEntry(dst_node=1, dst_page=32,
                                               use_timer=False))
    rec.node(0).nic.opt.bind_page(17, OPTEntry(dst_node=1, dst_page=33,
                                               use_timer=False))
    _bind_au(rec, 0, 18, 1, 34, use_timer=False)
    rec.watch(1, 32 * PAGE, 3 * PAGE)
    faults = []

    def fault_handler(fault):
        faults.append(fault)
        rec.note("n1 fault %#x +%d from n%d" % (fault.paddr, fault.size,
                                                fault.src_node))
        if len(faults) == 1:
            nic1.ipt.enable(fault.paddr // PAGE)
            rec.sim.schedule_call(7.0, nic1.unfreeze)
        else:
            rec.sim.schedule_call(3.0, nic1.unfreeze, True)

    nic1.fault_handler = fault_handler

    def sender():
        node = rec.node(0)
        yield from node.cpu_write(16 * PAGE, b"\xde\xad\xbe\xef", WT)
        node.nic.packetizer.flush()
        yield from node.cpu_write(17 * PAGE + 64, b"\x01" * 16, WT)
        node.nic.packetizer.flush()
        yield from node.cpu_write(18 * PAGE, b"\x02" * 32, WT)
        node.nic.packetizer.flush()

    spawn(rec.sim, sender())
    return rec


def case_remote_reads():
    """READ_REQUESTs served by node 1: from the shadow and from memory,
    each small and larger than max_packet_payload, plus one malformed
    and one denied request."""
    rec = Recorder()
    target = rec.node(1)
    for page in (50, 51, 52):
        target.nic.ipt.enable(page)
    target.poke(50 * PAGE, bytes(range(256)) * 16)
    target.poke(52 * PAGE, bytes(range(255, -1, -1)) * 16)
    assert target.nic.shadow.register([50])
    target.nic.shadow.write(50 * PAGE, target.peek(50 * PAGE, PAGE))
    requester = rec.node(0)
    for page in (80, 81, 82, 83):
        requester.nic.ipt.enable(page)
    rec.watch(0, 80 * PAGE, 4 * PAGE)
    reads = [
        (1, 50 * PAGE + 16, 200, 80 * PAGE),     # shadow, one packet
        (2, 50 * PAGE + 100, 2500, 81 * PAGE),   # shadow, chunked
        (3, 52 * PAGE + 8, 300, 82 * PAGE),      # memory, one packet
        (4, 52 * PAGE, 2100, 83 * PAGE),         # memory, chunked
        (5, 60 * PAGE, 64, 80 * PAGE + 2048),    # denied (page disabled)
    ]

    def reader():
        for seq, src_paddr, nbytes, reply in reads:
            requester.nic.packetizer.request_emit(
                1, encode_read_request(seq, src_paddr, nbytes, reply))
            yield rec.sim.timeout(1.5)
        requester.nic.packetizer.request_emit(1, b"\x00" * 12)  # malformed

    spawn(rec.sim, reader())
    return rec


def case_fault_plan():
    """A fault plan striking the incoming DMA engine (stall), the DU
    engine (stall, then abort) and node 1's EISA bus (degrade)."""
    plan = FaultPlan([
        Fault(5.0, FaultSite.NIC_DMA_IN, FaultKind.STALL,
              {"node": 1, "stall_us": 12.0}),
        Fault(0.0, FaultSite.NIC_DU, FaultKind.STALL,
              {"node": 0, "stall_us": 9.0}),
        Fault(40.0, FaultSite.NIC_DU, FaultKind.ABORT, {"node": 0}),
        Fault(20.0, FaultSite.BUS_EISA, FaultKind.DEGRADE,
              {"node": 1, "factor": 3.0, "duration_us": 60.0}),
    ])
    rec = Recorder(fault_plan=plan)
    for page in (40, 41):
        rec.node(1).nic.ipt.enable(page)
    rec.watch(1, 40 * PAGE, 2 * PAGE)
    proxy = rec.node(0).nic.opt.allocate_proxy(
        [OPTEntry(dst_node=1, dst_page=40), OPTEntry(dst_node=1, dst_page=41)])
    rec.node(0).poke(8 * PAGE, bytes(range(256)) * 16)

    def sender():
        yield from _du(rec, 0, [(8 * PAGE, 1500)], proxy, 0, 1500)
        yield rec.sim.timeout(30.0)
        yield from _du(rec, 0, [(8 * PAGE, 600)], proxy, 2000, 600)
        yield from _du(rec, 0, [(8 * PAGE, 2048)], proxy, PAGE, 2048)

    spawn(rec.sim, sender())
    return rec


CASES = {
    name[len("case_"):]: fn for name, fn in sorted(globals().items())
    if name.startswith("case_")
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nic_timeline_is_byte_identical(name):
    text = CASES[name]().render()
    assert text == (GOLDENS / ("%s.txt" % name)).read_text()


if __name__ == "__main__":
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for case_name, case in sorted(CASES.items()):
        (GOLDENS / ("%s.txt" % case_name)).write_text(case().render())
        print("wrote", GOLDENS / ("%s.txt" % case_name))
