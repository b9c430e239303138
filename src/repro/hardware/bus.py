"""Node buses: the Xpress memory bus and the EISA expansion bus.

The Xpress bus carries CPU stores (snooped by the NIC) and the memory
side of DMA; the EISA bus carries the NIC's DMA traffic — deliberate-
update source reads and incoming-packet writes — plus the programmed-
I/O accesses that initiate deliberate updates.

Both are modeled as serially-occupied bandwidth channels.  The EISA
channel is the end-to-end bottleneck of the system, as in the paper
(~23 MB/s effective after per-packet setup costs).  CPU store/load
*costs* are charged by the cache model (config.write_cost/read_cost),
so the Xpress channel is only occupied by DMA, avoiding double
charging; it exists so that ablations can model memory-bus saturation.
"""

from __future__ import annotations

from typing import Optional

from ..sim import BandwidthChannel, FaultInjector, FaultSite, Simulator
from .config import MachineConfig

__all__ = ["EisaBus", "XpressBus"]


class EisaBus(BandwidthChannel):
    """The EISA expansion bus of one node.

    Hosts the ``bus.eisa`` fault site: a ``degrade`` fault divides the
    bus bandwidth by ``factor`` for ``duration_us`` (a flaky card or a
    bus-hog peripheral stealing cycles).  Transfers that start inside
    the window take proportionally longer; the window opens when the
    first transfer at or after the fault's time crosses the bus.
    """

    def __init__(self, sim: Simulator, config: MachineConfig, node_id: int,
                 faults: Optional[FaultInjector] = None):
        super().__init__(
            sim,
            bandwidth=config.eisa_dma_bandwidth,
            name="eisa-n%d" % node_id,
        )
        self.config = config
        self.node_id = node_id
        self.faults = faults or FaultInjector(sim)
        self.pio_accesses = 0
        self._degraded_until = 0.0
        self._degrade_factor = 1.0
        self.degrade_windows = 0

    def occupancy(self, nbytes: int) -> float:
        """Channel time for one transfer, stretched while degraded."""
        base = super().occupancy(nbytes)
        if self.sim.now < self._degraded_until:
            return base * self._degrade_factor
        return base

    def _occupy(self, nbytes: int) -> float:
        """Claim the bus for one DMA transfer, consulting the fault site
        first (both :meth:`transfer` and :meth:`transfer_call` come
        through here)."""
        if self.faults.enabled:
            fault = self.faults.draw(FaultSite.BUS_EISA, node=self.node_id)
            if fault is not None:
                self._degrade_factor = fault.params.get("factor", 4.0)
                self._degraded_until = self.sim.now + fault.params.get(
                    "duration_us", 200.0
                )
                self.degrade_windows += 1
        return super()._occupy(nbytes)

    def pio_cost(self, accesses: int = 1) -> float:
        """CPU time of ``accesses`` programmed-I/O accesses decoded by the NIC.

        A deliberate update is initiated by a sequence of two of these.
        """
        self.pio_accesses += accesses
        return accesses * self.config.eisa_pio_access


class XpressBus(BandwidthChannel):
    """The Xpress memory bus of one node (73 MB/s burst writes)."""

    def __init__(self, sim: Simulator, config: MachineConfig, node_id: int):
        super().__init__(
            sim,
            bandwidth=config.xpress_bandwidth,
            name="xpress-n%d" % node_id,
        )
        self.config = config
