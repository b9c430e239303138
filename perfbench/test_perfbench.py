"""The benchmark's own tests:  python -m pytest perfbench -q"""

import contextlib
import io
import json
import os

import pytest

import run  # puts src/ on sys.path
import layers
import rules
import tracer as tracing
import workloads
from repro.sim.core import Simulator
from repro.sim.process import Process

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the capacity (knee) rule -------------------------------------------------

def test_capacity_is_highest_load_meeting_slo_without_backlog():
    points = [
        rules.LoadPoint(100e3, 99e3, 120.0),
        rules.LoadPoint(150e3, 149e3, 180.0),
        rules.LoadPoint(200e3, 185e3, 400.0),   # 0.925x offered: served
        rules.LoadPoint(250e3, 215e3, 900.0),   # 0.86x offered: backlog
        rules.LoadPoint(300e3, 290e3, 1186.0),  # p99 over the SLO
    ]
    assert rules.capacity(points) == 200e3
    assert rules.capacity(reversed(points)) == 200e3


def test_capacity_takes_the_highest_not_the_first_qualifying_load():
    points = [rules.LoadPoint(100e3, 80e3, 100.0),   # short of 0.9x
              rules.LoadPoint(150e3, 140e3, 300.0)]
    assert rules.capacity(points) == 150e3


def test_capacity_of_closed_loop_is_its_achieved_rate_within_slo():
    assert rules.capacity([rules.LoadPoint(None, 41.7e3, 291.0)]) == 41.7e3
    assert rules.capacity([rules.LoadPoint(None, 41.7e3, 1001.0)]) == 0.0
    assert rules.capacity([]) == 0.0


def test_capacity_edges_are_inclusive():
    assert rules.capacity([rules.LoadPoint(100.0, 90.0, 1000.0)]) == 100.0


# -- the p99-support rule -----------------------------------------------------

@pytest.mark.parametrize("samples, p, ok", [
    (999, 99.0, False), (1000, 99.0, True), (19, 50.0, False),
    (20, 50.0, True), (9999, 99.9, False), (10000, 99.9, True)])
def test_percentile_needs_ten_samples_beyond_it(samples, p, ok):
    assert rules.supports_percentile(samples, p) is ok


def test_weighted_percentile_is_nearest_rank():
    samples = [(5.0, 90), (50.0, 9), (500.0, 1)]
    assert rules.weighted_percentile(samples, 50.0) == 5.0
    assert rules.weighted_percentile(samples, 90.0) == 5.0
    assert rules.weighted_percentile(samples, 91.0) == 50.0
    assert rules.weighted_percentile(samples, 99.0) == 50.0
    assert rules.weighted_percentile(samples, 100.0) == 500.0


def test_paper_table_is_read_from_the_headline_test():
    table = dict(rules.paper_table())
    assert table["au_word_wt_us"] == 4.75
    assert table["srpc_null_inout_rtt_us"] == 9.5
    measured = {key: value * 1.2 for key, value in table.items()}
    measured.update(nx_small_au_us=14.0, raw_small_au_us=7.0)
    worst, problems = rules.paper_check(measured, list(table.items()))
    assert worst == pytest.approx(0.2) and not problems
    measured["du_word_us"] = table["du_word_us"] * 1.5
    worst, problems = rules.paper_check(measured, list(table.items()))
    assert worst == pytest.approx(0.5) and len(problems) == 1


# -- the resume-timing wrapper ------------------------------------------------

def test_self_time_excludes_nested_frames_and_parked_time(monkeypatch):
    """A toy process (outer) calls a wrapped generator (inner).  A fake
    clock advances only where the toy says work happens, so every
    share is exact."""
    clock = [0]
    monkeypatch.setattr(tracing, "_clock", lambda: clock[0])
    sim = Simulator()

    def work(ns):
        clock[0] += ns

    def inner():
        work(3)
        yield sim.timeout(10.0)      # parked: charged to nobody
        work(4)
        return "done"

    def outer():
        work(5)
        result = yield from wrapped_inner()
        work(6)
        assert result == "done"

    with tracing.Tracer().install() as tracer:
        inner_stats = tracer.stat("toy.inner", "libs")

        def wrapped_inner():
            return tracer.timed_generator(inner_stats, inner(), True)

        def iteration():
            work(20)                             # boot: outside the run
            tracer.sim = sim
            Process(sim, outer(), name="toy-outer-7")
            sim.schedule_call(5.0, work, 100)    # event-loop work
            sim.run()
            work(30)                             # report: outside too

        tracer.measure(iteration)

    outer_stats = tracer.stats["proc:toy-outer-#"]
    assert inner_stats.calls == 1 and outer_stats.calls == 1
    assert inner_stats.incl_ns == 7 and inner_stats.run_self_ns == 7
    assert outer_stats.incl_ns == 5 + 7 + 6
    assert outer_stats.run_self_ns == 5 + 6
    assert inner_stats.sim_us == 10.0
    assert tracer.run_ns == 5 + 7 + 6 + 100
    assert tracer.run_frames_ns == 18
    assert tracer.wall_ns == 20 + 118 + 30
    assert tracer.attribution_gap_ns() == 0
    shares = tracer.host_shares()
    assert shares["dispatch"] == pytest.approx(100 / 168)
    assert shares["outside"] == pytest.approx(50 / 168)
    assert shares["libs"] == pytest.approx(7 / 168)
    assert shares["other"] == pytest.approx(11 / 168)   # test module
    assert sum(shares.values()) == pytest.approx(1.0)


def test_attribution_gap_shows_a_frame_left_out_of_its_parent():
    tracer = tracing.Tracer()
    tracer.wall_ns = tracer.run_ns = 100
    tracer.run_frames_ns = 40
    tracer.stat("toy", "libs").run_self_ns = 40
    assert tracer.attribution_gap_ns() == 0
    tracer.stat("toy.nested", "libs").run_self_ns = 15   # counted twice
    assert tracer.attribution_gap_ns() == 15


def test_uninstall_restores_every_entry_point():
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _, _ in tracing.ENTRY_POINTS}
    with tracing.Tracer().install():
        assert any(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in before.items())
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in before.items())


# -- set-up hooks ------------------------------------------------------------

def test_last_machine_without_a_first_call_counts_as_unhooked():
    class Toy:
        def first(self):
            return "first"

    with workloads.Machines([(Toy, "first")]) as machines:
        machines._boot(object())
        assert Toy().first() == "first"       # fires and disarms
        machines._boot(object())              # never makes its call
    assert machines.unhooked == 1
    assert machines.setup_s > 0
    assert Toy.__dict__["first"].__name__ == "first"


# -- smoke runs ---------------------------------------------------------------

def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, lines


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_reports_every_metric(name):
    paper_error, _ = workloads.paper_accuracy()
    result = run.measure(workloads.WORKLOADS[name], 12, 0, paper_error,
                         scale=0.05)
    json.dumps(result)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    # At this size a sweep point may miss the capacity rule, so only
    # the host and latency metrics are sure to be positive.
    assert min(values.values()) >= 0
    assert min(values[name] for name in ("wall_s", "setup_s", "peak_rss_mb",
                                         "sim_p50_us", "sim_p99_us")) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reproduces_the_untraced_one(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.traced(workloads.WORKLOADS[name], 12, scale=0.05)
    assert any(line.startswith("fidelity:")
               for line in out.getvalue().splitlines())
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    assert set(metrics) == set(layers.PER_LAYER)
    total, _ = layers.share_sum(metrics)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert metrics["outside.host_frac"] > 0
    if name == "kv_overload":      # its side run reads one-sided
        assert metrics["onesided.hit_frac"] > 0
        assert metrics["nic.shadow_hit_frac"] > 0
        assert metrics["vmmc.read_remote.calls_per_op"] > 0


def test_iterations_of_one_seed_simulate_identically():
    workload = workloads.WORKLOADS["kv_overload"]
    first = workload.iteration(12, 0.05)
    again = workload.iteration(12, 0.05)
    assert first.fingerprint == again.fingerprint
    assert first.sim == again.sim


def test_side_runs_are_kept_out_of_the_simulated_metrics():
    overload = workloads.WORKLOADS["kv_overload"]
    scored_only = workloads.KvWorkload(overload.name, overload.why,
                                       overload.spec, overload.points)
    with_side = overload.iteration(12, 0.05)
    without = scored_only.iteration(12, 0.05)
    assert with_side.sim == without.sim
    assert with_side.ops > without.ops


def test_failed_correctness_check_exits_1_without_a_result(monkeypatch):
    monkeypatch.setattr(rules, "paper_table",
                        lambda: [("au_word_wt_us", 1.0)])   # 4.75x off
    code, lines = _run("--workload", "paper_ladder", "--seconds", "0")
    assert code == 1
    assert not any(line.startswith("{") for line in lines)


def test_unknown_workload_exits_nonzero():
    code, _ = _run("--workload", "nope", "--seconds", "0")
    assert code == 2


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == layers.PER_LAYER)
