"""Discrete-event simulation core.

This module provides the event loop that the whole SHRIMP model runs on.
Simulated time is a float in *microseconds* throughout the project, matching
the units the paper reports (latencies in microseconds, bandwidths in
MB/s == bytes/microsecond).

The design is a small, self-contained cousin of SimPy: a :class:`Simulator`
owns a time-ordered scheduler of callbacks, and :class:`Event` objects
connect producers to the processes waiting on them (see
:mod:`repro.sim.process`).

The scheduler is a binary heap of ``(time, priority, seq, fn, args)``
entries via :mod:`heapq` (docs/SIMULATOR.md, "Scheduler choice").
``seq`` is a monotonically increasing tiebreaker, so the total order
``(time, priority, seq)`` runs same-time, same-priority callbacks in
scheduling order and every run is fully deterministic.  That order is
pinned by the zero-regression and NIC-timeline goldens
(``tests/workload/test_zero_regression.py``,
``tests/hardware/test_nic_timeline_golden.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
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

    ``name`` is computed lazily: the hot paths create tens of thousands of
    short-lived events whose labels are only ever read by debuggers and
    ``repr`` — formatting them eagerly was a measurable cost.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_defused",
                 "_name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self._name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def name(self) -> str:
        """Debug label (lazily derived when not given at construction)."""
        return self._name or self._label()

    def _label(self) -> str:
        return self.__class__.__name__

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

    @property
    def defused(self) -> bool:
        """True once some consumer has taken responsibility for this
        event's failure (see :meth:`defuse`)."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event's exception as handled.

        Called automatically when the exception is thrown into a waiting
        process or consumed by a composite; anything else that swallows a
        failure on purpose must call this, or the failure is re-raised
        out of the event loop so bugs never pass silently."""
        self._defused = True

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self,))
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            # Inlined sim.schedule_call(0.0, cb, self, priority=URGENT):
            # triggering is the single hottest scheduling producer.
            sim = self.sim
            now = sim._now
            heap = sim._heap
            seq = sim._seq
            for callback in callbacks:
                seq += 1
                heappush(heap, (now, URGENT, seq, callback, (self,)))
            sim._seq = seq
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will have the exception thrown into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self,))
        self._triggered = True
        self._ok = False
        self._value = exception
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            sim = self.sim
            for callback in callbacks:
                sim.schedule_call(0.0, callback, self, priority=URGENT)
        return self

    def succeed_later(self, delay: float, value: Any = None) -> "Event":
        """Trigger this event ``delay`` from now with ONE scheduler entry.

        Equivalent to ``schedule_call(delay, self.succeed, value)`` but
        the dispatch runs the waiters' callbacks synchronously in place
        (same ordering proof as :meth:`Timeout._fire` — the entry runs
        at NORMAL priority, so no URGENT entry at that instant is still
        pending), saving the per-waiter URGENT bounce.  Used by wake
        paths that fold a fixed post-wake charge into the wake itself
        (e.g. the poll watchpoint path, docs/SIMULATOR.md).
        """
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self,))
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap,
                 (sim._now + delay, NORMAL, seq, self._fire_now, (value,)))
        return self

    def _fire_now(self, value: Any) -> None:
        # Dispatch half of succeed_later (see Timeout._fire's proof).
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self,))
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def _trigger(self, ok: bool, value: Any) -> None:
        # Kept as the single slow-path entry (subclass hooks, tests).
        if ok:
            self.succeed(value)
        else:
            self.fail(value)

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
        return "<%s %s at t=%.3f>" % (self.name, state, self.sim.now)


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 _at: Optional[float] = None):
        if delay < 0:
            raise ValueError("timeout delay must be >= 0, got %r" % (delay,))
        # Flattened Event.__init__ + sim.schedule_call: one of these is
        # created for nearly every yield in the model, so the two extra
        # frames were measurable at workload scale.
        self.sim = sim
        self._name = ""
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay if _at is None else _at,
                             NORMAL, seq, self._fire, (value,)))

    def _label(self) -> str:
        return "Timeout(%g)" % self.delay

    def _fire(self, value: Any) -> None:
        """Trigger at the scheduled time, running waiters in place.

        ``_fire`` executes as its own scheduler entry at NORMAL
        priority, which guarantees no URGENT entry at this timestamp is
        still pending (URGENT sorts first, and anything pushed by these
        callbacks gets a larger seq).  Running the callbacks
        synchronously here is therefore order-identical to bouncing each
        one through the scheduler — minus one push/pop/dispatch per
        waiter, on the single hottest wake path in the model.
        """
        if self._triggered:
            raise SimulationError("event %r already triggered" % (self,))
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


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

    def _consume_failure(self, event: Event) -> None:
        """Fail the composite with the child's exception, taking
        responsibility for it (waiters on the composite receive it)."""
        event.defuse()
        self.fail(event.value)

    def _late_child_failure(self, event: Event) -> None:
        """A child failed after the composite already triggered.

        The composite can no longer propagate the exception, but it must
        not vanish either: give the child's other consumers (scheduled at
        the same instant, URGENT) a chance to defuse it, then re-raise it
        out of the event loop."""
        self.sim.schedule_call(0.0, self._surface_unhandled, event,
                               priority=NORMAL)

    def _surface_unhandled(self, event: Event) -> None:
        if not event.defused:
            raise event.value


class AnyOf(_Composite):
    """Succeeds as soon as any child event triggers.

    The value is ``(event, event.value)`` for the first child to trigger.
    A failing child fails the composite; a child that fails *after*
    another child already won is re-raised out of the event loop unless
    some other consumer defuses it.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, events, "AnyOf")

    def _child_triggered(self, event: Event) -> None:
        if self.triggered:
            if event.ok is False:
                self._late_child_failure(event)
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            self._consume_failure(event)


class AllOf(_Composite):
    """Succeeds when every child event has succeeded.

    The value is the list of child values, in construction order.  A failing
    child fails the composite immediately; further children failing after
    that are re-raised out of the event loop unless some other consumer
    defuses them.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]):
        super().__init__(sim, events, "AllOf")

    def _child_triggered(self, event: Event) -> None:
        if self.triggered:
            if event.ok is False:
                self._late_child_failure(event)
            return
        if not event.ok:
            self._consume_failure(event)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class Simulator:
    """The discrete-event loop.

    Keeps a heap of ``(time, priority, seq, fn, args)`` entries.
    ``seq`` is a monotonically increasing tiebreaker so same-time,
    same-priority callbacks run in scheduling order, making runs fully
    deterministic.

    ``events_executed`` counts dispatched callbacks — the denominator of
    the sim-events/sec figure in ``BENCH_sim.json``.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False
        self.events_executed = 0

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
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, priority, seq, fn, args))

    def schedule_at(
        self,
        time: float,
        fn: Callable,
        *args: Any,
        priority: int = NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` at the *absolute* time ``time``.

        The callback counterpart of :meth:`timeout_at`: the deadline
        float is used verbatim, so a merged ``(now + a) + b`` deadline
        lands on the bit-exact instant of the two-step version.
        """
        if time < self._now:
            raise ValueError("cannot schedule in the past (time=%r, now=%r)"
                             % (time, self._now))
        self._seq = seq = self._seq + 1
        heappush(self._heap, (time, priority, seq, fn, args))

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Timeout:
        """Create an event that succeeds at the *absolute* time ``time``.

        Equivalent to ``timeout(time - now)`` except the deadline float
        is used verbatim — model code coalescing consecutive sleeps
        (``t = (now + a) + b``) lands on the bit-exact instant the
        two-sleep version would have, keeping reports byte-identical
        while halving the wake count (see docs/SIMULATOR.md).
        """
        return Timeout(self, time - self._now, value, _at=time)

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
        time, _priority, _seq, fn, args = heappop(self._heap)
        self._now = time
        self.events_executed += 1
        fn(*args)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled callback, or None if idle."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the scheduler drains or ``until`` microseconds is
        reached.

        Returns the value of a :class:`StopSimulation`, if one was raised
        (see :meth:`stop`), else None.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        executed = 0
        try:
            # Hot loop: dispatch straight off the heap with everything
            # localized.  Equivalent to ``while heap: self.step()`` minus
            # per-event attribute lookups and try/except setup.
            heap = self._heap
            pop = heappop
            if until is None:
                while heap:
                    entry = pop(heap)
                    self._now = entry[0]
                    executed += 1
                    entry[3](*entry[4])
            else:
                while heap:
                    if heap[0][0] > until:
                        self._now = until
                        break
                    entry = pop(heap)
                    self._now = entry[0]
                    executed += 1
                    entry[3](*entry[4])
            return None
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_executed += executed
            self._running = False

    def stop(self, value: Any = None) -> None:
        """Stop :meth:`run` at the current time (from inside a callback)."""
        raise StopSimulation(value)
