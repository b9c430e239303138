# Frozen copy of src/repro/sim/core.py at commit e4362ec, the seed engine,
# kept as the same-process reference of tests/bench/test_perf_smoke.py
# and repro.bench.simspeed.  Benchmark use only: do not edit or import
# from the model.
"""Discrete-event simulation core.

This module provides the event loop that the whole SHRIMP model runs on.
Simulated time is a float in *microseconds* throughout the project, matching
the units the paper reports (latencies in microseconds, bandwidths in
MB/s == bytes/microsecond).

The design is a small, self-contained cousin of SimPy: a :class:`Simulator`
owns a time-ordered heap of callbacks, and :class:`Event` objects connect
producers to the processes waiting on them (see :mod:`repro.sim.process`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "SimulationError",
    "StopSimulation",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Simulator",
    "NORMAL",
    "URGENT",
]

# Scheduling priorities: URGENT callbacks at the same timestamp run before
# NORMAL ones.  Used for event-triggering bookkeeping that must precede
# ordinary process resumption (e.g. releasing a bus before the next grab).
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` (or :meth:`fail`)
    triggers it exactly once, records its value (or exception), and schedules
    all registered callbacks.  Callbacks registered after triggering are
    scheduled immediately.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception, if it failed)."""
        if not self._triggered:
            raise SimulationError("event %r has not been triggered" % (self,))
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have the exception thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self,))
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            self.sim.schedule_call(0.0, callback, self, priority=URGENT)

    # -- waiting -------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered, the callback is scheduled to run at
        the current simulation time (still via the event loop, preserving
        deterministic ordering).
        """
        if self.callbacks is None:
            self.sim.schedule_call(0.0, callback, self, priority=URGENT)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        label = self.name or self.__class__.__name__
        return "<%s %s at t=%.3f>" % (label, state, self.sim.now)


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("timeout delay must be >= 0, got %r" % (delay,))
        super().__init__(sim, name="Timeout(%g)" % delay)
        self.delay = delay
        sim.schedule_call(delay, self._fire, value, priority=NORMAL)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class _Composite(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: List[Event], name: str):
        super().__init__(sim, name=name)
        self.events = list(events)
        if not self.events:
            raise ValueError("%s requires at least one event" % name)
        self._pending = len(self.events)
        for event in self.events:
            event.add_callback(self._child_triggered)

    def _child_triggered(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Composite):
    """Succeeds as soon as any child event triggers.

    The value is ``(event, event.value)`` for the first child to trigger.
    A failing child fails the composite.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, events, "AnyOf")

    def _child_triggered(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)


class AllOf(_Composite):
    """Succeeds when every child event has succeeded.

    The value is the list of child values, in construction order.  A failing
    child fails the composite immediately.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, events, "AllOf")

    def _child_triggered(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class Simulator:
    """The discrete-event loop.

    Keeps a heap of ``(time, priority, seq, fn, args)`` entries.  ``seq`` is a
    monotonically increasing tiebreaker so same-time, same-priority callbacks
    run in scheduling order, making runs fully deterministic.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------
    def schedule_call(
        self,
        delay: float,
        fn: Callable,
        *args: Any,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule in the past (delay=%r)" % (delay,))
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, fn, args))

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Composite event: first child to trigger wins."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """Composite event: triggers when all children succeed."""
        return AllOf(self, events)

    # -- running ---------------------------------------------------------
    def step(self) -> None:
        """Run the single next callback, advancing time to it."""
        if not self._heap:
            raise SimulationError("no more events to run")
        time, _priority, _seq, fn, args = heapq.heappop(self._heap)
        self._now = time
        fn(*args)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or None if idle."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the heap drains or ``until`` microseconds is reached.

        Returns the value of a :class:`StopSimulation`, if one was raised
        (see :meth:`stop`), else None.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        try:
            while self._heap:
                if until is not None and self._heap[0][0] > until:
                    self._now = until
                    break
                try:
                    self.step()
                except StopSimulation as stop:
                    return stop.value
            return None
        finally:
            self._running = False

    def stop(self, value: Any = None) -> None:
        """Stop :meth:`run` at the current time (from inside a callback)."""
        raise StopSimulation(value)
