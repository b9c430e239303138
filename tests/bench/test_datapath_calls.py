"""Host-cost guard: Python calls per packet and per store stay low.

Counts the ``sys.setprofile`` "call" events whose code lives under
``src/repro`` — every function call and generator resume of the model —
for two 2-node, 10-round-trip ``vmmc_pingpong`` runs, system boot
included: AU-1copy with 64-byte messages (the per-store path: snoop,
OPT lookup, combining, timer) and DU-0copy with 4096-byte messages
(the per-packet path: DU engine, packetizer, FIFO, injection, mesh,
IPT check, landing DMA).  Each count must stay at or below a committed
ceiling, the count after the one-lookup-per-page datapath rewrite plus
5%.

The counts are a function of the code alone — the simulation is
deterministic, only repository frames are counted, and the garbage
collector is paused while counting — so the guard holds on any host,
unlike a wall-clock gate.  Before that rewrite the two runs made 4124
and 20052 calls; after it, 3200 and 16268 (Python 3.11).  A change
that adds calls to the datapath fails here; if the added work is
wanted, re-measure and raise the ceiling in the same change, saying
why (docs/SIMULATOR.md, "Host cost per packet").
"""

import gc
import os
import sys

import pytest

import repro
from repro import testbed
from repro.bench.pingpong import STRATEGIES, vmmc_pingpong

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: (strategy, message bytes) -> ceiling on src/repro calls.
CEILINGS = {
    ("AU-1copy", 64): round(3200 * 1.05),
    ("DU-0copy", 4096): round(16268 * 1.05),
}


def repro_calls(strategy: str, size: int) -> int:
    """src/repro call events of one 2-node, 10-round-trip ping-pong."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(REPRO_ROOT):
            count += 1

    # A collection finalizing some earlier run's suspended generators
    # would count their frames here, at allocation-dependent moments.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        system = testbed.make_system(n_nodes=2, mesh_width=2, mesh_height=1)
        vmmc_pingpong(STRATEGIES[strategy], size, iterations=10, warmup=0,
                      system=system)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


@pytest.mark.parametrize("strategy,size", sorted(CEILINGS))
def test_pingpong_repro_calls_under_ceiling(strategy, size):
    calls = repro_calls(strategy, size)
    ceiling = CEILINGS[(strategy, size)]
    assert calls <= ceiling, (
        "%s %dB ping-pong made %d src/repro calls, over the ceiling of %d"
        % (strategy, size, calls, ceiling))


def test_count_is_deterministic():
    assert repro_calls("AU-1copy", 64) == repro_calls("AU-1copy", 64)
