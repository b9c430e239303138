"""Property tests: the NIC arbiter gate is a capacity-one Resource.

The NIC's processor-port arbiter is a two-port gate (one holder, one
parked claim per port, incoming first) instead of a general
:class:`~repro.sim.Resource`.  Its contract is that nothing observable
changes: driven by the same request/release script at priorities 0
(incoming) and 1 (outgoing), both must grant in the same order, at the
same float instants, with the same busy time, arbitration wait and
grant count at every grant.

Both models run callback clients, so a parked claim costs one URGENT
entry in each (the Resource's triggered ``Request`` bounce, the gate's
scheduled grant) and the two dispatch transcripts are comparable
entry for entry.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.nic.arbiter import (INCOMING_PRIORITY, OUTGOING_PRIORITY,
                                        Arbiter)
from repro.sim import Resource, SimulationError, Simulator

# Exact repeats (0.0, 0.5, 1.0) make claims collide at one instant, so
# same-time arbitration and the incoming-first rule get exercised.
delays = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
scripts = st.lists(st.tuples(delays, delays), min_size=0, max_size=25)


class Client:
    """One serial port user: wait ``gap``, claim, hold ``hold``, release."""

    def __init__(self, sim, port, script, acquire, release, log):
        self.sim = sim
        self.port = port
        self.script = script
        self.acquire = acquire
        self.release = release
        self.log = log
        sim.schedule_call(0.0, self._step, 0)

    def _step(self, i):
        if i < len(self.script):
            self.sim.schedule_call(self.script[i][0], self._claim, i)

    def _claim(self, i):
        if self.acquire(self.port, lambda: self._granted(i)):
            self._granted(i)

    def _granted(self, i):
        self.log.append((self.sim.now, self.port, i))
        self.sim.schedule_call(self.script[i][1], self._done, i)

    def _done(self, i):
        self.release(self.port)
        self._step(i + 1)


def run_resource(incoming, outgoing):
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="arbiter-n0")
    held = {}
    log = []

    def acquire(port, on_grant):
        request = held[port] = resource.request(priority=port)
        if request.triggered:
            return True
        request.callbacks.append(lambda _event: on_grant())
        return False

    def release(port):
        resource.release(held.pop(port))

    return _drive(sim, resource, acquire, release, log, incoming, outgoing)


def run_gate(incoming, outgoing):
    sim = Simulator()
    gate = Arbiter(sim, 0)
    log = []
    return _drive(sim, gate, gate.acquire, lambda _port: gate.release(), log,
                  incoming, outgoing)


def _drive(sim, arbiter, acquire, release, log, incoming, outgoing):
    snapshots = []

    def acquire_and_snapshot(port, on_grant):
        def granted():
            snapshots.append(arbiter.metrics_snapshot())
            on_grant()

        if acquire(port, granted):
            snapshots.append(arbiter.metrics_snapshot())
            return True
        return False

    Client(sim, INCOMING_PRIORITY, incoming, acquire_and_snapshot, release,
           log)
    Client(sim, OUTGOING_PRIORITY, outgoing, acquire_and_snapshot, release,
           log)
    sim.run()
    return log, snapshots, arbiter.metrics_snapshot(), sim.now, \
        sim.events_executed


@settings(derandomize=True, max_examples=300, deadline=None)
@given(incoming=scripts, outgoing=scripts)
def test_gate_matches_capacity_one_resource(incoming, outgoing):
    """Same grant order and instants, same accounting at every grant
    and at the end, same dispatch count."""
    expected = run_resource(incoming, outgoing)
    assert run_gate(incoming, outgoing) == expected


def test_contended_release_grants_incoming_first():
    """With both ports parked behind the holder, the release grants
    incoming even though outgoing claimed first."""
    sim = Simulator()
    gate = Arbiter(sim, 0)
    order = []

    def granted(port):
        order.append((sim.now, port))
        sim.schedule_call(1.0, gate.release)

    assert gate.acquire(INCOMING_PRIORITY, None)
    assert not gate.acquire(OUTGOING_PRIORITY,
                            lambda: granted(OUTGOING_PRIORITY))
    assert not gate.acquire(INCOMING_PRIORITY,
                            lambda: granted(INCOMING_PRIORITY))
    sim.schedule_call(2.0, gate.release)
    sim.run()
    assert order == [(2.0, INCOMING_PRIORITY), (3.0, OUTGOING_PRIORITY)]
    assert gate.metrics_snapshot()["wait_time"] == 2.0 + 3.0
    assert gate.metrics_snapshot()["busy_time"] == 4.0


def test_gate_rejects_misuse():
    sim = Simulator()
    gate = Arbiter(sim, 3)
    with pytest.raises(SimulationError):
        gate.release()  # released while free
    assert gate.acquire(INCOMING_PRIORITY, None)
    assert not gate.acquire(OUTGOING_PRIORITY, lambda: None)
    with pytest.raises(SimulationError):
        gate.acquire(OUTGOING_PRIORITY, lambda: None)  # port already parked
    assert gate.metrics_snapshot()["name"] == "arbiter-n3"
