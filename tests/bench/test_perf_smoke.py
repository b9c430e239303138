"""Perf smoke guard: the engine must not quietly lose its speed.

The committed ``BENCH_sim.json`` records how much faster than the seed
engine the current engine dispatches
(``speedup_vs_seed.dispatch_events_per_s``).  This guard re-measures
that ratio in this process — the frozen seed engine
(:mod:`repro.bench.seed_engine`) and the current one, timed
interleaved, best of several runs each — and fails when it has fallen
more than 30% below the committed ratio: the canary for an
accidentally quadratic hot path or a fast path silently disabled.

A ratio of two engines timed side by side cancels host speed and load,
so the gate holds on any machine; an absolute events/sec floor
recorded on one machine does not (docs/SIMULATOR.md, "Perf smoke
guard").
"""

import json
import pathlib

from repro.bench.simspeed import dispatch_speedup

BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_sim.json"


def test_dispatch_rate_within_30pct_of_committed():
    """current/seed dispatch speed >= 70% of the committed ratio."""
    committed = json.loads(BENCH.read_text())
    target = committed["speedup_vs_seed"]["dispatch_events_per_s"]
    measured = dispatch_speedup(events=50000, repeats=5)
    assert measured["speedup"] >= 0.7 * target, (
        "current engine dispatches %.2fx the seed engine (best %.4f s vs "
        "%.4f s for %d events), more than 30%% below the committed "
        "%.2fx — engine regression"
        % (measured["speedup"], measured["current_best_wall_s"],
           measured["seed_best_wall_s"], measured["events"], target))


def test_bench_artifact_schema_and_claims():
    """The committed artifact is well-formed and self-consistent."""
    committed = json.loads(BENCH.read_text())
    assert committed["schema"] == "repro.bench.simspeed/v1"
    assert not committed["quick"], "commit full measurements, not --quick"
    base = committed["baseline_seed_engine"]
    dispatch = committed["dispatch"]
    speed = committed["speedup_vs_seed"]
    assert dispatch["events"] >= 200000
    ratio = dispatch["events_per_s"] / base["dispatch_events_per_s"]
    assert abs(ratio - speed["dispatch_events_per_s"]) < 1e-9
    # The PR 9 tentpole claim, pinned: >= 2x dispatch events/sec.
    assert speed["dispatch_events_per_s"] >= 2.0
    assert 0.0 < speed["capacity_events_eliminated"] < 1.0
