"""The Paragon-style mesh routing backplane.

The backplane connects the NICs: a packet injected by node A's network
interface crosses a dimension-order path of routers and is handed to
node B's incoming side.  Delivery timing is computed analytically per
packet (head latency per hop + FIFO link occupancy), which models
wormhole cut-through and per-pair ordering without per-flit events.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...sim import FaultInjector, FaultKind, FaultSite, Simulator, Tracer
from ..config import MachineConfig
from .imrc import RouterNode
from .packet import Packet

__all__ = ["MeshBackplane"]

DeliverFn = Callable[[Packet], None]


class MeshBackplane:
    """A ``width x height`` mesh of iMRC routers with NICs at the nodes."""

    def __init__(self, sim: Simulator, config: MachineConfig, tracer: Optional[Tracer] = None,
                 faults: Optional[FaultInjector] = None):
        self.sim = sim
        self.config = config
        self.tracer = tracer or Tracer(sim)
        self.faults = faults or FaultInjector(sim)
        self.routers: Dict[Tuple[int, int], RouterNode] = {}
        for y in range(config.mesh_height):
            for x in range(config.mesh_width):
                self.routers[(x, y)] = RouterNode(sim, config, x, y)
        self._receivers: Dict[int, DeliverFn] = {}
        # Loopback traffic still crosses the NIC/router port serially;
        # one pseudo-link per node keeps self-sends FIFO too.
        self._loopback: Dict[int, "Link"] = {}
        # Dimension-order routing is deterministic, so the link sequence
        # of each (src, dst) pair is computed once and cached; inject()
        # then just walks the cached links.
        self._paths: Dict[Tuple[int, int], List] = {}
        # Conservation counters: routed == delivered + dropped + in-flight
        # at every instant (the invariant the tests/conftest audit checks).
        self.packets_routed = 0
        self.bytes_routed = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        self.packets_in_flight = 0
        self.bytes_in_flight = 0
        self.packets_corrupted = 0
        self.packets_delayed = 0

    # -- wiring ---------------------------------------------------------
    def attach(self, node_id: int, deliver: DeliverFn) -> None:
        """Register the incoming-side handler of a node's NIC."""
        if node_id in self._receivers:
            raise ValueError("node %d already attached" % node_id)
        self._receivers[node_id] = deliver

    def _build_path(self, src_node: int, dst_node: int) -> List:
        """The ordered links a (src, dst) packet claims, per dimension-
        order routing (one pseudo-link for loopback)."""
        cfg = self.config
        if src_node == dst_node:
            loop = self._loopback.get(src_node)
            if loop is None:
                from .imrc import Link

                loop = Link("loopback-n%d" % src_node, cfg.link_bandwidth)
                self._loopback[src_node] = loop
            return [loop]
        links: List = []
        x, y = cfg.node_position(src_node)
        dest_x, dest_y = cfg.node_position(dst_node)
        while (x, y) != (dest_x, dest_y):
            router = self.routers[(x, y)]
            next_x, next_y = router.route_step(dest_x, dest_y)
            links.append(router.link_to(self.routers[(next_x, next_y)]))
            x, y = next_x, next_y
        return links

    def hops(self, src_node: int, dst_node: int) -> int:
        """Manhattan hop count between two nodes' routers."""
        sx, sy = self.config.node_position(src_node)
        dx, dy = self.config.node_position(dst_node)
        return abs(sx - dx) + abs(sy - dy)

    # -- injection -------------------------------------------------------
    def inject(self, packet: Packet) -> float:
        """Send ``packet``; returns the simulated arrival time.

        Called by the sending NIC at the moment the packet leaves its
        outgoing FIFO.  Must be called in the order packets should be
        delivered (per source) — the NIC's serial injection stage
        guarantees this, and FIFO links preserve it across the mesh.
        """
        if packet.dst_node not in self._receivers:
            raise ValueError("no NIC attached at node %d" % packet.dst_node)
        cfg = self.config
        wire_bytes = cfg.packet_header_bytes + packet.size
        sim = self.sim
        now = sim._now

        head = now + cfg.nic_link_latency
        hop_latency = cfg.router_hop_latency
        path = self._paths.get((packet.src_node, packet.dst_node))
        if path is None:
            path = self._build_path(packet.src_node, packet.dst_node)
            self._paths[(packet.src_node, packet.dst_node)] = path
        for link in path:
            head = link.claim(now, head + hop_latency, wire_bytes)
        arrival = head + wire_bytes / cfg.link_bandwidth + cfg.nic_link_latency

        self.packets_routed += 1
        self.bytes_routed += packet.size
        if self.faults.enabled:
            fault = self.faults.draw(FaultSite.MESH_LINK)
            if fault is not None:
                if fault.kind == FaultKind.DROP:
                    # The packet dies in the fabric: nothing is scheduled
                    # at the destination, the bytes are accounted as
                    # dropped (conservation stays checkable).
                    self.packets_dropped += 1
                    self.bytes_dropped += packet.size
                    self.tracer.log(
                        "mesh", "packet #%d n%d->n%d DROPPED by fault",
                        packet.seq, packet.src_node, packet.dst_node,
                    )
                    return arrival
                if fault.kind == FaultKind.CORRUPT:
                    # Flip one payload byte in flight; the seq is kept so
                    # delivery ordering and tracing stay coherent.  The
                    # libraries' CRC checks are what must catch this.
                    offset = fault.params.get("offset", 0) % packet.size
                    payload = bytearray(packet.payload)
                    payload[offset] ^= 0xFF
                    packet = Packet(
                        src_node=packet.src_node,
                        dst_node=packet.dst_node,
                        dst_paddr=packet.dst_paddr,
                        payload=bytes(payload),
                        kind=packet.kind,
                        interrupt=packet.interrupt,
                        seq=packet.seq,
                    )
                    self.packets_corrupted += 1
                elif fault.kind == FaultKind.DELAY:
                    arrival += fault.params.get("delay_us", 20.0)
                    self.packets_delayed += 1
        self.packets_in_flight += 1
        self.bytes_in_flight += packet.size
        if self.tracer.enabled:
            self.tracer.complete(
                "mesh.transit",
                "pkt #%d n%d->n%d %dB" % (packet.seq, packet.src_node,
                                          packet.dst_node, packet.size),
                now,
                arrival,
                track="mesh.backplane",
                data={"bytes": packet.size, "wire_bytes": wire_bytes,
                      "hops": self.hops(packet.src_node, packet.dst_node)},
            )
        self.tracer.log(
            "mesh", "packet #%d n%d->n%d %dB arrives %.3f",
            packet.seq, packet.src_node, packet.dst_node, packet.size,
            arrival,
        )
        sim.schedule_call(arrival - now, self._deliver, packet)
        return arrival

    def _deliver(self, packet: Packet) -> None:
        self.packets_in_flight -= 1
        self.bytes_in_flight -= packet.size
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        # Must stay the last act of this NORMAL entry: an idle incoming
        # engine lands the packet inline (IncomingDmaEngine.deliver).
        self._receivers[packet.dst_node](packet)

    # -- inspection --------------------------------------------------------
    def link_utilization(self) -> Dict[str, int]:
        """Bytes carried per directed link (for the ablation benches)."""
        stats: Dict[str, int] = {}
        for router in self.routers.values():
            for link in router.links.values():
                stats[link.name] = link.bytes_carried
        return stats
