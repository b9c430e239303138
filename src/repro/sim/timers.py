"""Slotted and coalesced timers over the DES core.

The raw :meth:`Simulator.timeout` API is fire-and-forget: every armed
timer is one immutable heap entry that *will* dispatch, even when the
thing it guarded already happened.  Two recurring timer shapes in the
SHRIMP model pay for that:

* **Bounded waits** (hardened retransmission deadlines, ``poll`` with a
  deadline): the waiter usually wakes early, and each loop iteration
  re-arms a fresh full-window timeout at the *same* absolute deadline.
  N early wakes leave N dead entries that all dispatch as stale no-ops.
  :class:`TimerWheel` keys timers by their exact deadline float, so
  every re-arm at the same instant shares ONE scheduler entry, and
  :meth:`TimerWheel.cancel` is an O(1) flag flip — no heap surgery.

* **Idle timeouts** (the packetizer's user-programmable combining
  timer): the deadline slides forward with every write, but re-arming
  per write would be O(writes) heap churn.  :class:`IdleTimer` arms
  once for the full window and *re-checks* on expiry — if activity
  landed meanwhile it sleeps only the remainder, so the entry count
  scales with expiries, not with writes.

Both classes are pure sugar over :meth:`Simulator.schedule_call`; they
introduce no new event ordering.  A wheel slot's scheduler entry is
created when its first timer registers (so it carries that
registration's ``seq``), and a slot's callbacks run in registration
order — exactly where the equivalent individual timeouts would have
dispatched.  The deadline arithmetic repeats the float operations of
the open-coded versions verbatim (``now + (deadline - now)``;
``timeout - idle``), keeping the zero-regression goldens byte-identical
(see docs/SIMULATOR.md, "Determinism rules").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .core import Simulator

__all__ = ["TimerWheel", "IdleTimer"]

# A registered timer: [fn, args].  Cancellation nulls the fn in place,
# which is why the handle can stay O(1) — the slot list never shrinks.
_Cell = list
TimerHandle = Tuple[float, _Cell]


class TimerWheel:
    """Float-keyed timer slots with shared entries and O(1) cancel.

    Unlike the classic fixed-tick hashed wheel, slots are keyed by the
    *exact* deadline float: the simulator is discrete-event, so there
    is no tick quantum to round to, and exactness is what lets a re-arm
    at the same instant coalesce onto the existing entry without
    perturbing the report timeline.
    """

    __slots__ = ("sim", "_slots")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._slots: Dict[float, List[_Cell]] = {}

    def at(self, deadline: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute sim time ``deadline``.

        The first registration for a given deadline schedules the one
        underlying entry (via ``schedule_call(deadline - now, ...)`` —
        the same float arithmetic an open-coded
        ``timeout(deadline - now)`` performs); later registrations at
        the same float ride that entry for free.  Returns a handle for
        :meth:`cancel`.
        """
        cell: _Cell = [fn, args]
        slot = self._slots.get(deadline)
        if slot is None:
            self._slots[deadline] = [cell]
            self.sim.schedule_call(deadline - self.sim.now, self._fire, deadline)
        else:
            slot.append(cell)
        return (deadline, cell)

    def cancel(self, handle: TimerHandle) -> None:
        """Disarm a timer returned by :meth:`at` (O(1), idempotent).

        The shared scheduler entry still dispatches at its instant (the
        heap is immutable), but a cancelled cell is skipped — the stale
        callback never runs, unlike a raw abandoned :class:`Timeout`
        whose callbacks must each carry their own staleness guard.
        """
        handle[1][0] = None

    def pending(self, deadline: float) -> int:
        """Live (uncancelled) timers currently registered at ``deadline``."""
        slot = self._slots.get(deadline)
        if not slot:
            return 0
        return sum(1 for cell in slot if cell[0] is not None)

    def _fire(self, deadline: float) -> None:
        # Dispatch half: pop the whole slot, run survivors in
        # registration order.  Callbacks may re-register at the same
        # float — that starts a fresh slot (and a fresh entry), which
        # is the behaviour an open-coded re-arm would have too.
        slot = self._slots.pop(deadline, None)
        if not slot:
            return
        for cell in slot:
            fn = cell[0]
            if fn is not None:
                fn(*cell[1])


class IdleTimer:
    """A coalesced idle-timeout timer (the combining-timer shape).

    Arms once for the full idle window and lazily re-checks on expiry:
    ``probe()`` reports the guarded object's ``(timeout, last_activity)``
    (or ``None`` when nothing is guarded any more), and ``expire()``
    fires the timeout action.  If activity landed since arming, the
    timer sleeps only the remainder — so a stream of W writes under one
    timer window costs O(expiries) scheduler entries, not O(W).

    The expiry test uses a clock-scaled tolerance: ``now -
    last_activity`` loses up to one ulp of ``now``, and at large sim
    times a fixed epsilon would be smaller than that rounding error —
    the timer would then re-arm by a sub-ulp remainder forever.
    """

    __slots__ = ("sim", "_probe", "_expire", "_armed")

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], Optional[Tuple[float, float]]],
        expire: Callable[[], None],
    ):
        self.sim = sim
        self._probe = probe
        self._expire = expire
        self._armed = False

    @property
    def armed(self) -> bool:
        """Whether a wake is currently scheduled."""
        return self._armed

    def arm(self, timeout: float) -> None:
        """Schedule an expiry check ``timeout`` from now (no-op if armed)."""
        if self._armed:
            return
        self._armed = True
        self.sim.schedule_call(timeout, self._fired)

    def _fired(self) -> None:
        self._armed = False
        probed = self._probe()
        if probed is None:
            return
        timeout, last_activity = probed
        now = self.sim._now
        idle = now - last_activity
        tolerance = 1e-9 * max(1.0, now)
        if idle + tolerance >= timeout:
            self._expire()
        else:
            # Activity landed since arming; re-check after the remainder.
            self._armed = True
            self.sim.schedule_call(timeout - idle, self._fired)
