"""Arbiter for the NIC chip's processor port.

'The Arbiter is needed to share the NIC's processor port between
outgoing and incoming transfer, with incoming given absolute priority.'

Exactly two clients contend for the port — the Incoming DMA Engine
(port 0) and the outgoing injection stage (port 1) — and each is
serial, so the arbiter is a two-port gate rather than a general
resource: one holder and at most one waiter per port.  A claim on a
free port is granted on the spot.  A claim on a busy one parks the
client's callback in its port's slot; the release that frees the port
grants the waiting incoming port first, and schedules the callback as
an URGENT entry at the release instant — the entry a capacity-one
:class:`~repro.sim.Resource` grant's triggered ``Request`` would have
dispatched, so the event order is unchanged (docs/SIMULATOR.md,
"Callback-driven NIC engines").  Busy time, arbitration wait and grant
count repeat that resource's float arithmetic
(``tests/properties/test_arbiter_gate.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ...sim import SimulationError, Simulator
from ...sim.core import URGENT

__all__ = ["Arbiter", "INCOMING_PRIORITY", "OUTGOING_PRIORITY"]

INCOMING_PRIORITY = 0
OUTGOING_PRIORITY = 1


class Arbiter:
    """The NIC-port arbiter of one network interface."""

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.name = "arbiter-n%d" % node_id
        self._held = False
        # Per port: (grant callback, request time) of its parked claim.
        self._waiting: List[Optional[Tuple[Callable[[], None], float]]] = [
            None, None]
        self.busy_time = 0.0
        self.wait_time = 0.0
        self.grants = 0
        self._busy_since: Optional[float] = None

    def acquire(self, port: int, on_grant: Callable[[], None]) -> bool:
        """Claim the processor port for ``port`` (a ``*_PRIORITY``).

        Returns True when the port was free: the claim is granted and
        the caller goes on synchronously.  Otherwise returns False and
        ``on_grant()`` runs once the holder releases.
        """
        if not self._held:
            # A zero-wait grant adds ``now - now`` to wait_time: a no-op.
            self._held = True
            self._busy_since = self.sim._now
            self.grants += 1
            return True
        if self._waiting[port] is not None:
            raise SimulationError("%s: port %d already has a pending claim"
                                  % (self.name, port))
        self._waiting[port] = (on_grant, self.sim._now)
        return False

    def release(self) -> None:
        """Free the port, granting it to a parked claim if there is one."""
        if not self._held:
            raise SimulationError("%s released while free" % self.name)
        sim = self.sim
        now = sim._now
        self.busy_time += now - self._busy_since
        waiting = self._waiting
        port = INCOMING_PRIORITY if waiting[INCOMING_PRIORITY] else OUTGOING_PRIORITY
        claim = waiting[port]
        if claim is None:
            self._held = False
            self._busy_since = None
            return
        waiting[port] = None
        on_grant, requested_at = claim
        self._busy_since = now
        self.wait_time += now - requested_at
        self.grants += 1
        sim.schedule_call(0.0, on_grant, priority=URGENT)

    def metrics_snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Utilization counters for the metrics registry."""
        now = self.sim.now if now is None else now
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return {
            "name": self.name,
            "kind": "resource",
            "busy_time": busy,
            "count": self.grants,
            "wait_time": self.wait_time,
        }
