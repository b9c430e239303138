"""Packet format of the SHRIMP interconnect.

A packet is what the Packetizing hardware emits into the Outgoing FIFO:
a header carrying the *destination physical base address* (VMMC packets
address memory, not processes) plus flags, followed by the payload bytes.
The mesh preserves per-(source, destination) order, which VMMC turns
into its in-order delivery guarantee.

Besides the two store-carrying kinds (automatic and deliberate update),
the NIC understands one *request* kind: a ``READ_REQUEST`` carries a
fixed-size descriptor asking the destination NIC to DMA a physical
range out of its memory and return it as ordinary deliberate-update
packets addressed to a reply buffer named in the descriptor
(docs/ONESIDED.md).  The descriptor and the reply completion header are
hardware wire formats, so their structs live here next to the packet.
"""

from __future__ import annotations

import enum
import itertools
import struct
import zlib
from typing import NamedTuple, Optional

__all__ = ["PacketKind", "Packet", "ReadRequest", "READ_REPLY_HEADER",
           "READ_REQUEST_MAGIC", "encode_read_request",
           "decode_read_request", "encode_read_reply_header"]

_SEQUENCE = itertools.count(1)


class PacketKind(enum.Enum):
    """Origin of a packet, for tracing and statistics."""

    AUTOMATIC_UPDATE = "au"
    DELIBERATE_UPDATE = "du"
    READ_REQUEST = "rr"


# One-sided read request descriptor: magic, seq, src_paddr, nbytes,
# reply_paddr, trace id, parent span id, crc32 of the preceding fields.
# Trace id zero means "untraced" (repro.obs.context convention).
READ_REQUEST_MAGIC = 0x52445231  # "RDR1"
_READ_REQUEST = struct.Struct("<IIIIIII")
_READ_REQUEST_CRC = struct.Struct("<I")

# Reply completion header, written at offset 0 of the reply buffer
# *after* the data chunks (in-order per-pair delivery makes it the
# commit point): seq, data length, crc32 of the data, status.
READ_REPLY_HEADER = struct.Struct("<IIII")
READ_REPLY_OK = 0


class ReadRequest(NamedTuple):
    """A decoded, CRC-verified READ_REQUEST descriptor."""

    seq: int
    src_paddr: int
    nbytes: int
    reply_paddr: int
    trace_id: int
    parent_sid: int


def encode_read_request(seq: int, src_paddr: int, nbytes: int,
                        reply_paddr: int, trace_id: int = 0,
                        parent_sid: int = 0) -> bytes:
    """The wire descriptor of one one-sided read request."""
    body = _READ_REQUEST.pack(READ_REQUEST_MAGIC, seq, src_paddr, nbytes,
                              reply_paddr, trace_id, parent_sid)
    return body + _READ_REQUEST_CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def decode_read_request(payload: bytes) -> Optional[ReadRequest]:
    """Validate and decode a descriptor; None if malformed or corrupt."""
    if len(payload) != _READ_REQUEST.size + _READ_REQUEST_CRC.size:
        return None
    body = payload[:_READ_REQUEST.size]
    (crc,) = _READ_REQUEST_CRC.unpack(payload[_READ_REQUEST.size:])
    if crc != zlib.crc32(body) & 0xFFFFFFFF:
        return None
    magic, seq, src_paddr, nbytes, reply_paddr, tid, psid = \
        _READ_REQUEST.unpack(body)
    if magic != READ_REQUEST_MAGIC or nbytes <= 0:
        return None
    return ReadRequest(seq, src_paddr, nbytes, reply_paddr, tid, psid)


def encode_read_reply_header(seq: int, data: bytes,
                             status: int = READ_REPLY_OK) -> bytes:
    """The completion header stamped after the reply data landed."""
    return READ_REPLY_HEADER.pack(seq, len(data),
                                  zlib.crc32(data) & 0xFFFFFFFF, status)


class Packet:
    """One wormhole packet on the backplane.

    ``dst_paddr`` is the destination *physical* byte address the incoming
    DMA engine will write to after checking the Incoming Page Table.
    ``interrupt`` is the sender-specified interrupt flag of Section 3.2:
    an interrupt is raised at the destination only if this AND the
    receiving page's IPT interrupt flag are both set.

    ``seq`` defaults to the next number of one global sequence, drawn
    before the payload is checked; ``size`` is the payload length, fixed
    at construction.  The NIC builds one for every packet it forms, so
    this is a plain slotted class rather than a dataclass.
    """

    __slots__ = ("src_node", "dst_node", "dst_paddr", "payload", "kind",
                 "interrupt", "seq", "size")

    def __init__(self, src_node: int, dst_node: int, dst_paddr: int,
                 payload: bytes, kind: PacketKind, interrupt: bool = False,
                 seq: Optional[int] = None):
        self.src_node = src_node
        self.dst_node = dst_node
        self.dst_paddr = dst_paddr
        self.kind = kind
        self.interrupt = interrupt
        self.seq = next(_SEQUENCE) if seq is None else seq
        if not payload:
            raise ValueError("packet must carry at least one byte")
        # Payload is kept immutable so in-flight packets cannot alias the
        # sender's memory (the hardware latches the written data).
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        self.payload = payload
        self.size = len(payload)

    def wire_size(self, header_bytes: int) -> int:
        """Total bytes on a link, including the header."""
        return header_bytes + self.size

    @property
    def end_paddr(self) -> int:
        """One past the last destination byte (for combining checks)."""
        return self.dst_paddr + self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Packet #%d %s n%d->n%d paddr=%#x len=%d%s>" % (
            self.seq,
            self.kind.value,
            self.src_node,
            self.dst_node,
            self.dst_paddr,
            self.size,
            " INTR" if self.interrupt else "",
        )
