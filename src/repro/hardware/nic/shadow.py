"""On-card region shadow: the snoop-fed serve cache for one-sided reads.

Automatic update works because the NIC snoops every write-through store
on the bus — the data passes the card for free.  The shadow extends
that observation one step: for pages an export has registered as
*read-served*, the card retains the snooped lines in its on-board
memory.  A remote READ_REQUEST against a resident page is then answered
entirely from NIC DRAM — the host bus and its arbiter are never
touched, which is what makes the one-sided GET a true server bypass
(docs/ONESIDED.md): the target host cannot even observe the read.

Coherence comes from the same two datapaths that already exist:

* snooped CPU stores — the region writer's write-through stores, fed in
  through :meth:`NetworkInterface.snoop_write`;
* the NIC's own landing DMA writes, mirrored by the Incoming DMA Engine
  as it writes main memory.

No third path writes an exported slot region, so the shadow never goes
stale.  Capacity is bounded by ``config.nic_shadow_bytes``; a region
that does not fit is simply not registered and its reads fall back to
the host-DMA serve path — correct either way, just slower.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

__all__ = ["RegionShadow"]


class RegionShadow:
    """Page-granular mirror of registered frames in NIC memory."""

    def __init__(self, config):
        self.page_size = config.page_size
        self.capacity = config.nic_shadow_bytes
        self.pages: Dict[int, bytearray] = {}
        self.rejects = 0

    @property
    def resident_bytes(self) -> int:
        return len(self.pages) * self.page_size

    def register(self, frames: Iterable[int]) -> bool:
        """Pin ``frames`` into the shadow; all-or-nothing.

        Returns False (and registers nothing) when the capacity bound
        would be exceeded — the caller keeps serving that region from
        host memory.
        """
        new = [f for f in frames if f not in self.pages]
        if self.resident_bytes + len(new) * self.page_size > self.capacity:
            self.rejects += 1
            return False
        for frame in new:
            self.pages[frame] = bytearray(self.page_size)
        return True

    def write(self, paddr: int, data: bytes) -> None:
        """Mirror a store the card observed; ignores unregistered pages.

        Untimed — the bytes are passing the card anyway (a snooped
        store or the NIC's own landing DMA); retaining them costs no
        extra bus time.  Both feeds skip the call while no region is
        registered (``pages`` empty).
        """
        ps = self.page_size
        offset, n = 0, len(data)
        while offset < n:
            page, within = divmod(paddr + offset, ps)
            take = min(n - offset, ps - within)
            buf = self.pages.get(page)
            if buf is not None:
                buf[within:within + take] = data[offset:offset + take]
            offset += take

    def read(self, paddr: int, nbytes: int) -> Optional[bytes]:
        """The resident bytes at ``paddr``, or None if any page is absent."""
        ps = self.page_size
        out = bytearray()
        offset = 0
        while offset < nbytes:
            page, within = divmod(paddr + offset, ps)
            take = min(nbytes - offset, ps - within)
            buf = self.pages.get(page)
            if buf is None:
                return None
            out += buf[within:within + take]
            offset += take
        return bytes(out)
