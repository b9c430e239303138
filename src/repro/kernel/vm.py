"""Virtual memory: per-process address spaces, page tables, MMU checks.

VMMC's protection argument leans on the ordinary virtual memory system:
'the hardware virtual memory management unit (MMU) on an importing node
makes sure that transferred data cannot overwrite memory outside a
receive buffer', and deliberate update uses 'the ordinary virtual memory
protection mechanisms (MMU and page tables)'.

This module models exactly that much: page tables mapping virtual pages
to physical frames with read/write permissions and a per-page cache
mode, and a translate() that raises on violations.  No swapping — the
prototype pins communication memory, and nothing in the paper's
experiments pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..hardware.config import CacheMode, MachineConfig
from ..hardware.memory import FrameAllocator

__all__ = ["ProtectionFault", "PTE", "AddressSpace"]


class ProtectionFault(Exception):
    """An access violated the page tables (unmapped or wrong permission)."""


@dataclass
class PTE:
    """One page-table entry."""

    frame: int
    cache_mode: CacheMode = CacheMode.WRITE_BACK
    readable: bool = True
    writable: bool = True
    pinned: bool = False


class AddressSpace:
    """The virtual address space of one user process.

    Virtual addresses start at ``BASE`` (a non-zero base so that address
    0 is never valid — null-pointer hygiene).  ``mmap`` allocates zeroed
    anonymous memory backed by frames from the node's allocator.
    """

    BASE_PAGE = 16  # first virtual page handed out (vaddr 0x10000 at 4 KB pages)

    def __init__(self, config: MachineConfig, frames: FrameAllocator):
        self.config = config
        self.frames = frames
        self.page_table: Dict[int, PTE] = {}
        self._next_vpage = self.BASE_PAGE

    # -- allocation --------------------------------------------------------
    def mmap(
        self,
        nbytes: int,
        cache_mode: CacheMode = CacheMode.WRITE_BACK,
        contiguous: bool = False,
    ) -> int:
        """Allocate ``nbytes`` (rounded up to pages); returns the vaddr.

        ``contiguous`` requests physically contiguous frames (pinned
        receive-buffer style); plain allocations may be scattered.
        """
        if nbytes <= 0:
            raise ValueError("mmap size must be positive")
        page_size = self.config.page_size
        npages = -(-nbytes // page_size)
        if contiguous:
            first = self.frames.allocate_contiguous(npages)
            frame_list = list(range(first, first + npages))
        else:
            frame_list = self.frames.allocate(npages)
        vpage = self._next_vpage
        self._next_vpage += npages
        for i, frame in enumerate(frame_list):
            self.page_table[vpage + i] = PTE(frame=frame, cache_mode=cache_mode)
        return vpage * page_size

    def unmap(self, vaddr: int, nbytes: int) -> None:
        """Release a mapped range (frames go back to the allocator)."""
        released = []
        for vpage in self._vpages(vaddr, nbytes):
            pte = self.page_table.pop(vpage, None)
            if pte is None:
                raise ProtectionFault("unmapping unmapped page %d" % vpage)
            released.append(pte.frame)
        self.frames.free(released)

    # -- attribute control ------------------------------------------------------
    def set_cache_mode(self, vaddr: int, nbytes: int, mode: CacheMode) -> None:
        """Flip the per-page caching policy (a SHRIMP-specific OS call)."""
        for vpage in self._vpages(vaddr, nbytes):
            self._pte(vpage).cache_mode = mode

    def set_pinned(self, vaddr: int, nbytes: int, pinned: bool) -> None:
        """Mark pages pinned/unpinned for communication use."""
        for vpage in self._vpages(vaddr, nbytes):
            self._pte(vpage).pinned = pinned

    def protect(self, vaddr: int, nbytes: int, readable: bool, writable: bool) -> None:
        """Set read/write permissions on a mapped range."""
        for vpage in self._vpages(vaddr, nbytes):
            pte = self._pte(vpage)
            pte.readable = readable
            pte.writable = writable

    # -- translation ----------------------------------------------------------------
    def translate(self, vaddr: int, nbytes: int, write: bool = False,
                  with_mode: bool = False):
        """Map ``[vaddr, vaddr+nbytes)`` to physical (paddr, length) segments.

        Adjacent segments in contiguous frames are merged.  Raises
        :class:`ProtectionFault` on unmapped pages or permission misses.
        Every CPU access translates, so each page costs one page-table
        lookup and no further call.  With ``with_mode`` the result is
        ``(segments, cache_mode)``: the caching policy of the page
        holding ``vaddr`` (see :meth:`cache_mode_of`), taken from the
        same lookup.
        """
        if nbytes < 0:
            raise ValueError("negative length")
        if nbytes == 0:
            return ([], self.cache_mode_of(vaddr)) if with_mode else []
        page_size = self.config.page_size
        page_table = self.page_table
        segments: List[Tuple[int, int]] = []
        mode = None
        offset = 0
        while offset < nbytes:
            vpage, page_offset = divmod(vaddr + offset, page_size)
            # ``_pte`` runs only to raise the unmapped-page fault.
            pte = page_table.get(vpage) or self._pte(vpage)
            if write and not pte.writable:
                raise ProtectionFault("write to read-only page %d" % vpage)
            if not write and not pte.readable:
                raise ProtectionFault("read of unreadable page %d" % vpage)
            if mode is None:
                mode = pte.cache_mode
            length = min(nbytes - offset, page_size - page_offset)
            paddr = pte.frame * page_size + page_offset
            if segments and segments[-1][0] + segments[-1][1] == paddr:
                segments[-1] = (segments[-1][0], segments[-1][1] + length)
            else:
                segments.append((paddr, length))
            offset += length
        return (segments, mode) if with_mode else segments

    def cache_mode_of(self, vaddr: int) -> CacheMode:
        """Caching policy of the page containing ``vaddr``."""
        vpage = vaddr // self.config.page_size
        return (self.page_table.get(vpage) or self._pte(vpage)).cache_mode

    def frames_of(self, vaddr: int, nbytes: int) -> List[int]:
        """Physical frame numbers backing a range (export-time helper)."""
        return [self._pte(vp).frame for vp in self._vpages(vaddr, nbytes)]

    def is_mapped(self, vaddr: int, nbytes: int = 1) -> bool:
        """True iff the whole range is mapped."""
        try:
            for vpage in self._vpages(vaddr, nbytes):
                self._pte(vpage)
        except ProtectionFault:
            return False
        return True

    # -- internals ---------------------------------------------------------------------
    def _pte(self, vpage: int) -> PTE:
        pte = self.page_table.get(vpage)
        if pte is None:
            raise ProtectionFault("access to unmapped virtual page %d" % vpage)
        return pte

    def _vpages(self, vaddr: int, nbytes: int):
        page_size = self.config.page_size
        first = vaddr // page_size
        last = (vaddr + max(nbytes, 1) - 1) // page_size
        return range(first, last + 1)
