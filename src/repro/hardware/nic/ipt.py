"""Incoming Page Table (IPT).

'The IPT has an entry for every page of memory, and each entry contains
a flag which specifies whether the network interface can transfer data
to the corresponding page or not.'  A second, receiver-specified flag
enables notification interrupts for the page (Section 3.2).

If data arrives for a page that is not enabled, the incoming DMA engine
freezes the receive datapath and interrupts the node CPU — the hardware
half of VMMC's protection story (the MMU-equivalent bound on incoming
transfers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from ..config import MachineConfig

__all__ = ["IPTEntry", "IncomingPageTable"]


@dataclass
class IPTEntry:
    """Receive permission + interrupt configuration of one physical page."""

    enabled: bool = False
    interrupt: bool = False
    # Opaque kernel cookie: which export (and therefore which process /
    # handler) owns this page.  The hardware only needs the two flags;
    # the cookie is how the kernel's notification dispatch finds its way
    # back from an interrupting page to the user handler.
    owner: Any = None


class IncomingPageTable:
    """The IPT of one NIC (entries default to disabled)."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._entries: Dict[int, IPTEntry] = {}

    def entry(self, page: int) -> IPTEntry:
        """The (lazily materialized) entry for a physical page."""
        if not 0 <= page < self.config.memory_pages:
            raise ValueError("page %d out of range" % page)
        ent = self._entries.get(page)
        if ent is None:
            ent = IPTEntry()
            self._entries[page] = ent
        return ent

    def enable(self, page: int, interrupt: bool = False, owner: Any = None) -> None:
        """Permit incoming transfers to ``page`` (export-time setup)."""
        ent = self.entry(page)
        ent.enabled = True
        ent.interrupt = interrupt
        ent.owner = owner

    def disable(self, page: int) -> None:
        """Forbid incoming transfers (unexport)."""
        ent = self.entry(page)
        ent.enabled = False
        ent.interrupt = False
        ent.owner = None

    def set_interrupt(self, page: int, interrupt: bool) -> None:
        """Flip the receiver-specified interrupt flag.

        This is the per-page status bit the libraries toggle when
        switching between polling and blocking (Section 6).
        """
        self.entry(page).interrupt = interrupt

    def is_enabled(self, page: int) -> bool:
        """May the NIC deliver into this page?"""
        ent = self._entries.get(page)
        return ent is not None and ent.enabled

    def wants_interrupt(self, page: int) -> bool:
        """Is the receiver-side interrupt flag set?"""
        ent = self._entries.get(page)
        return ent is not None and ent.interrupt

    def check_range(self, paddr: int, nbytes: int) -> bool:
        """True iff every page touched by ``[paddr, paddr+nbytes)`` is enabled.

        Runs twice per landing packet, so it costs one table lookup per
        page and no further call.
        """
        page_size = self.config.page_size
        entries = self._entries
        for page in range(paddr // page_size,
                          (paddr + nbytes - 1) // page_size + 1):
            ent = entries.get(page)
            if ent is None or not ent.enabled:
                return False
        return True
