"""Class attributes replaced for a while and put back.

The benchmark measures the simulator from outside: every hook it sets
(set-up timers, the host-reference sampler, the tracer's wrappers) is
a class attribute replaced here and restored when the hook is done.
"""

from __future__ import annotations

from typing import List, Tuple


class Patches:
    """Replaced class attributes; :meth:`restore` puts the originals
    back, last replaced first.  As a context manager it restores on
    exit."""

    def __init__(self):
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, owner: type, attr: str, replacement) -> object:
        """Set ``owner.attr`` to ``replacement``; returns the original
        (as found in the class body, so descriptors stay unbound)."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return original

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
