# Frozen copy of src/repro/sim/process.py at commit e4362ec, the seed engine,
# kept as the same-process reference of tests/bench/test_perf_smoke.py
# and repro.bench.simspeed.  Benchmark use only: do not edit or import
# from the model.
"""Generator-based simulation processes.

A simulation *process* is a Python generator that yields :class:`Event`
objects (or other processes — a :class:`Process` is itself an event that
triggers on completion).  Yielding suspends the process until the event
triggers; the event's value is sent back into the generator, and a failed
event has its exception thrown in.

This is the execution model for everything active in the SHRIMP model:
user programs, the SHRIMP daemons, DMA engines, router pipelines, and the
benchmark drivers.  Library calls (``csend``, ``clnt_call``, ``send``...)
are written as generator functions that the application process delegates
to with ``yield from``, mirroring the paper's "runs entirely at user level"
structure: the library code literally executes on the application process.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Interrupt", "Process", "spawn"]


class Interrupt(Exception):
    """Thrown into a process that gets interrupted mid-wait.

    Used to model asynchronous control transfer — most importantly signal
    delivery to a process blocked in the notification layer.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator, usable as an event that fires at completion.

    The process's value is the generator's return value (``StopIteration``
    payload); an uncaught exception inside the generator fails the process
    event, propagating to any process waiting on it.  An exception with no
    waiters is re-raised out of the event loop so bugs never pass silently.
    """

    __slots__ = ("_generator", "_waiting_on", "_interrupts")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "Process requires a generator; got %r. Did you call a plain "
                "function instead of a generator function?" % (generator,)
            )
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupts: list = []
        # Kick off on the event loop (not synchronously) for determinism.
        sim.schedule_call(0.0, self._resume, None)

    # -- lifecycle -------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True until the generator finishes or raises."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        Interrupting a finished process is an error.  Multiple interrupts
        queue up and are delivered one per resumption.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt finished process %r" % (self,))
        self._interrupts.append(cause)
        self.sim.schedule_call(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self.triggered or not self._interrupts:
            return
        cause = self._interrupts.pop(0)
        waited = self._waiting_on
        if waited is not None:
            self._waiting_on = None
            # The event may still fire later; detach our resumption so the
            # process isn't resumed twice.
            if waited.callbacks is not None and self._event_done in waited.callbacks:
                waited.callbacks.remove(self._event_done)
        self._advance(("throw", Interrupt(cause)))

    # -- generator driving -------------------------------------------------
    def _resume(self, send_value: Any) -> None:
        self._advance(("send", send_value))

    def _event_done(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale callback (we were interrupted away from it)
        self._waiting_on = None
        if event.ok:
            self._advance(("send", event.value))
        else:
            self._advance(("throw", event.value))

    def _advance(self, action) -> None:
        kind, payload = action
        try:
            if kind == "send":
                target = self._generator.send(payload)
            else:
                target = self._generator.throw(payload)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            self._crash(exc)
            return
        if not isinstance(target, Event):
            exc = TypeError(
                "process %r yielded %r; processes must yield Event objects "
                "(Timeout, Event, Process, resource requests, ...)" % (self.name, target)
            )
            self._generator.close()
            self._crash(exc)
            return
        if target.sim is not self.sim:
            self._generator.close()
            self._crash(SimulationError("yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._event_done)

    def _crash(self, exc: BaseException) -> None:
        if self.callbacks:
            # Someone is waiting on us: propagate as a failed event.
            self.fail(exc)
        else:
            # Nobody listening — surface the bug loudly.
            self._triggered = True
            self._ok = False
            self._value = exc
            raise exc


def spawn(sim: Simulator, generator: Generator, name: str = "") -> Process:
    """Start ``generator`` as a new simulation process."""
    return Process(sim, generator, name=name)
