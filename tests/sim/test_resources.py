"""Unit tests for Resource, Store, and BandwidthChannel."""

import pytest

from repro.sim import BandwidthChannel, Resource, Simulator, Store, spawn


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_immediately_when_free():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker():
        req = res.request()
        yield req
        log.append(sim.now)
        res.release(req)

    spawn(sim, worker())
    sim.run()
    assert log == [0.0]


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(ident, hold):
        req = res.request()
        yield req
        log.append(("start", ident, sim.now))
        yield sim.timeout(hold)
        res.release(req)
        log.append(("end", ident, sim.now))

    spawn(sim, worker("a", 5.0))
    spawn(sim, worker("b", 3.0))
    sim.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 5.0),
        ("start", "b", 5.0),
        ("end", "b", 8.0),
    ]


def test_resource_capacity_two_allows_parallel_holders():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def worker(ident):
        req = res.request()
        yield req
        starts.append((ident, sim.now))
        yield sim.timeout(10.0)
        res.release(req)

    for ident in ("a", "b", "c"):
        spawn(sim, worker(ident))
    sim.run()
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_resource_priority_order():
    """Lower priority value is served first when a slot frees up."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def claimant(ident, priority):
        yield sim.timeout(1.0)  # queue up behind the holder
        req = res.request(priority=priority)
        yield req
        order.append(ident)
        res.release(req)

    spawn(sim, holder())
    spawn(sim, claimant("low-pri", 10))
    spawn(sim, claimant("high-pri", 0))
    sim.run()
    assert order == ["high-pri", "low-pri"]


def test_resource_release_of_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    res.release(second)  # cancel while still queued
    res.release(first)
    assert res.count == 0
    assert res.queue_length == 0


def test_resource_release_unknown_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)
    req = other.request()
    with pytest.raises(ValueError):
        res.release(req)


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        with res.request() as req:
            yield req
            assert res.count == 1
        return res.count

    proc = spawn(sim, worker())
    sim.run()
    assert proc.value == 0


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(4.0)
        yield store.put("late")

    spawn(sim, consumer())
    spawn(sim, producer())
    sim.run()
    assert got == [("late", 4.0)]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(6.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    # At t=6.0 the get unblocks the waiting producer before the consumer's
    # own resumption is scheduled, so "put-b" logs first.
    assert log == [("put-a", 0.0), ("put-b", 6.0), ("got", "a", 6.0)]


def test_store_try_put_respects_capacity():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert store.items == (1, 2)


def test_store_len_and_items_snapshot():
    sim = Simulator()
    store = Store(sim)
    store.try_put("x")
    assert len(store) == 1
    snapshot = store.items
    store.try_put("y")
    assert snapshot == ("x",)


# ---------------------------------------------------------------------------
# BandwidthChannel
# ---------------------------------------------------------------------------

def test_channel_transfer_time_is_size_over_bandwidth():
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=10.0)  # 10 bytes/us
    done = []

    def worker():
        yield chan.transfer(100)
        done.append(sim.now)

    spawn(sim, worker())
    sim.run()
    assert done == [10.0]


def test_channel_overhead_added_per_transfer():
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=10.0, overhead=2.0)
    done = []

    def worker():
        yield chan.transfer(100)
        done.append(sim.now)
        yield chan.transfer(100)
        done.append(sim.now)

    spawn(sim, worker())
    sim.run()
    assert done == [12.0, 24.0]


def test_channel_serializes_concurrent_transfers():
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=1.0)  # 1 byte/us
    done = []

    def worker(ident, size):
        yield chan.transfer(size)
        done.append((ident, sim.now))

    spawn(sim, worker("a", 10))
    spawn(sim, worker("b", 5))
    sim.run()
    # b queued behind a: finishes at 10 + 5.
    assert done == [("a", 10.0), ("b", 15.0)]


def test_channel_idle_gap_not_charged():
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=1.0)
    done = []

    def worker():
        yield chan.transfer(10)
        yield sim.timeout(100.0)  # channel goes idle
        yield chan.transfer(10)
        done.append(sim.now)

    spawn(sim, worker())
    sim.run()
    assert done == [120.0]


def test_channel_transfer_call_matches_transfer():
    """The callback form queues behind event-form transfers and keeps
    the same accounting."""
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=4.0, overhead=0.5)
    done = []
    chan.transfer(10).add_callback(lambda _e: done.append(("event", sim.now)))
    chan.transfer_call(6, lambda tag: done.append((tag, sim.now)), "call")
    sim.run()
    assert done == [("event", 3.0), ("call", 5.0)]
    assert (chan.bytes_carried, chan.transfers, chan.busy_time,
            chan.wait_time) == (16, 2, 5.0, 3.0)


def test_channel_counts_bytes_and_transfers():
    sim = Simulator()
    chan = BandwidthChannel(sim, bandwidth=10.0)
    chan.transfer(30)
    chan.transfer(70)
    sim.run()
    assert chan.bytes_carried == 100
    assert chan.transfers == 2


def test_channel_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        BandwidthChannel(sim, bandwidth=0.0)
    chan = BandwidthChannel(sim, bandwidth=1.0)
    with pytest.raises(ValueError):
        chan.occupancy(-1)
