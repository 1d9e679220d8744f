"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import json
import os
import signal
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


# -- self times ----------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    #  A [0, 10] -> B [1, 4], C [5, 9] -> D [6, 7];  A [12, 13]
    names = ["A", "B", "C", "D", "A"]
    starts = [0.0, 1.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 9.0, 7.0, 13.0]
    parents = [-1, 0, 0, 2, -1]
    selfs = tracing.self_times(names, starts, ends, parents)
    assert selfs == {"A": 10 - 3 - 4 + 1, "B": 3, "C": 4 - 1, "D": 1}
    assert tracing.root_time(starts, ends, parents) == 11
    assert sum(selfs.values()) == tracing.root_time(starts, ends, parents)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_wrapped_calls_nest_and_add_up_to_the_pass():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    wrapped_leaf = tr.wrap("m.leaf", leaf, True)

    def outer():
        clock.advance(1.0)
        wrapped_leaf()
        wrapped_leaf()
        clock.advance(0.5)

    wrapped_outer = tr.wrap("m.outer", outer, True)
    start = clock()
    wrapped_outer()
    clock.advance(3.0)  # harness time outside every span
    wrapped_leaf()
    pass_s = clock() - start
    selfs = tr.self_times()
    assert selfs == {"m.outer": 1.5, "m.leaf": 6.0}
    assert tr.calls == {"m.outer": 1, "m.leaf": 3}
    assert tr.parents == [-1, 0, 0, -1]
    m = tracing.layer_metrics(tr, pass_s)
    assert m["trace.other_s"] == 3.0
    assert sum(selfs.values()) + m["trace.other_s"] == pass_s


def test_generator_gets_one_span_per_next():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def gen():
        clock.advance(1.0)  # set-up, paid by the first next()
        for i in range(3):
            clock.advance(0.5)
            yield i

    wrapped = tr.wrap("oracle.enumerate_block_maps", gen, True)
    assert list(wrapped()) == [0, 1, 2]
    # three yields plus the final next() that ends the generator
    assert tr.names == ["oracle.enumerate_block_maps"] * 4
    assert tr.self_times()["oracle.enumerate_block_maps"] == 2.5
    assert tr.counts["oracle.enumerate_block_maps.yielded"] == 3


def test_install_wraps_every_binding_and_uninstall_restores():
    import sdcat.analysis
    import sdcat.classify
    import sdcat.core
    import sdcat.errors
    import sdcat.oracle

    originals = {
        "check_budget": sdcat.errors.check_budget,
        "window_graph": sdcat.core.window_graph,
        "make_block_map": sdcat.core.make_block_map,
        "words": sdcat.core.Presentation.__dict__["words"],
    }
    tr = tracing.Tracer()
    tr.install()
    try:
        assert sdcat.errors.check_budget is not originals["check_budget"]
        assert sdcat.analysis.check_budget is sdcat.errors.check_budget
        assert sdcat.analysis.window_graph is sdcat.core.window_graph
        assert sdcat.analysis.window_graph is not originals["window_graph"]
        assert sdcat.classify.make_block_map is sdcat.core.make_block_map
        assert sdcat.oracle.make_block_map is not originals["make_block_map"]
        full = sdcat.core.full_shift(["0", "1"])
        full.words(3)
        assert tr.calls["core.Presentation.words"] == 1
        assert tr.calls["errors.check_budget"] >= 1
    finally:
        tr.uninstall()
    assert sdcat.errors.check_budget is originals["check_budget"]
    assert sdcat.analysis.check_budget is originals["check_budget"]
    assert sdcat.analysis.window_graph is originals["window_graph"]
    assert sdcat.oracle.make_block_map is originals["make_block_map"]
    assert sdcat.core.Presentation.__dict__["words"] is originals["words"]


# -- tail percentile -----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = worker.tail_latency([float(x) for x in range(100, 0, -1)])
    assert (value, pct) == (90.0, 90.0)
    value, pct = worker.tail_latency([float(x) for x in range(1, 1001)])
    assert (value, pct) == (990.0, 99.0)
    value, pct = worker.tail_latency([float(x) for x in range(1, 12)])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11)
    # ten samples or fewer: the maximum
    assert worker.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _stats(n_items, passes, latency_ms):
    stats = worker.PassStats()
    for p in range(passes):
        for key in range(n_items):
            ms = latency_ms(key, p)
            stats.latencies_ms.append(ms)
            stats.keys.append(key)
            stats.by_key.setdefault(key, []).append(ms)
    stats.requested = stats.decided = n_items * passes
    return stats


def test_summary_uses_per_item_medians_and_picks_the_tail_samples():
    # one pass in three is twice as slow: per-item medians ignore it
    s = worker.summary(_stats(1000, 3, lambda k, p: (k + 1) * (2.0 if p == 1 else 1.0)))
    assert s["item_ms_p50"] == 500.5
    assert s["items_per_s"] == pytest.approx(1000 / (sum(range(1, 1001)) / 1000.0))
    # 1000 distinct items: the tail is the 11th largest per-item median, p99
    assert (s["item_ms_tail"], s["tail_percentile"], s["tail_samples"]) == (990.0, 99.0, 1000)
    # 100 distinct items are still enough for the per-item medians: p90
    s = worker.summary(_stats(100, 3, lambda k, p: float(k + 1)))
    assert (s["item_ms_tail"], s["tail_percentile"], s["tail_samples"]) == (90.0, 90.0, 100)
    # 13 distinct items: the tail takes all 78 samples instead
    s = worker.summary(_stats(13, 6, lambda k, p: float(k + 1)))
    assert s["tail_samples"] == 78
    assert s["item_ms_tail"] == sorted(float(k + 1) for k in range(13) for _ in range(6))[67]


def test_scale_rescales_only_the_samples_since_the_last_reference():
    stats = worker.PassStats()
    toy = ToyWorkload(lambda: wl.Outcome({"a": "YES"}))
    outcome = wl.Outcome({"a": "YES"})
    stats.add(toy, 0, 0.010, outcome, {}, {})
    stats.add(toy, 1, 0.020, outcome, {}, {})
    stats.scale(2 * worker.REFERENCE_MS)  # the machine ran at half speed
    stats.add(toy, 0, 0.006, outcome, {}, {})
    stats.scale(worker.REFERENCE_MS)
    assert stats.by_key == {0: [5.0, 6.0], 1: [10.0]}
    assert stats.latencies_ms == [10.0, 20.0, 6.0]  # as measured
    assert stats.reference_ms == [2 * worker.REFERENCE_MS, worker.REFERENCE_MS]
    assert worker.summary(stats)["item_ms_p50"] == 7.75
    assert worker.summary(stats)["item_ms_p50_measured"] == 14.0


def test_a_scaled_pass_leaves_no_sample_unscaled():
    stats = worker.PassStats()
    toy = ToyWorkload(lambda: wl.Outcome({"a": "YES"}))
    toy.order = lambda rng: [0, 1, 2]
    worker.timed_pass(toy, worker.pass_rng(1, 0), stats)
    assert not stats.unscaled and len(stats.reference_ms) >= 1
    assert worker.reference_work() == 61


# -- failure classification ----------------------------------------------------


def test_check_oracle_mismatch_and_flip():
    out = wl.check(wl.Outcome({"a": "YES"}), {"a": "NO"}, {})
    assert out.failure == "oracle"
    out = wl.check(wl.Outcome({"a": "NO"}), {}, {"a": "YES"})
    assert out.failure == "flip"


def test_check_undecided_and_budget_are_not_failures():
    for got in ("UNDECIDED", "BUDGET"):
        out = wl.check(wl.Outcome({"a": got}), {"a": "YES"}, {"a": "YES"})
        assert out.failure is None
    # a recorded UNDECIDED that is now decided is not a flip
    assert wl.check(wl.Outcome({"a": "NO"}), {}, {"a": "UNDECIDED"}).failure is None


class ToyWorkload(wl.Workload):
    name = "toy"
    deadline_s = 0.05

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def order(self, rng):
        return [0]

    def run(self, key):
        return self.behaviour()

    def expected(self, key):
        return {"a": "YES"}, {}


def test_run_item_classifies_an_exception():
    def boom():
        raise ValueError("bad input")

    _, out, _, _ = worker.run_item(ToyWorkload(boom), 0)
    assert out.failure == "exception" and "ValueError" in out.detail


def test_run_item_classifies_a_slow_item_as_past_its_deadline():
    def slow():
        time.sleep(0.1)
        return wl.Outcome({"a": "YES"})

    _, out, _, _ = worker.run_item(ToyWorkload(slow), 0)
    assert out.failure == "deadline"


def test_run_item_alarm_stops_an_item_that_never_returns():
    def spin():
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        seconds, out, _, _ = worker.run_item(ToyWorkload(spin), 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert out.failure == "deadline"
    assert seconds < 5.0


def test_cli_answers_budget_exit_and_status():
    command = {"exit": 0, "expect": {"status": "YES"}}
    assert wl.cli_answers(command, 69, "").answers == {"status": "BUDGET"}
    out = wl.cli_answers(command, 0, json.dumps({"status": "exists"}))
    assert out.answers == {"status": "YES"} and out.failure is None
    out = wl.cli_answers(command, 1, json.dumps({"status": "not-exists"}))
    assert out.failure == "oracle"
    assert wl.cli_answers(command, 1, "Traceback").failure == "exception"


# -- a wrong expected entry fails the run --------------------------------------


def _census_with(table, keys):
    census = wl.Census(table=table)
    census.order = lambda rng: list(keys)
    return census


def _flipped(answer):
    return {"YES": "NO", "NO": "YES"}[answer]


@pytest.mark.parametrize("kind", ["oracle", "recorded"])
def test_wrong_expected_entry_fails_the_run(kind):
    table = wl.load_table("census.json")
    row = table["items"][90]
    assert row["bits"] == 90  # xor of the outer two cells
    key = "K2.epic"
    row[kind][key] = _flipped(row[kind][key])
    stats = worker.PassStats()
    worker.timed_pass(_census_with(table, [90, 204]), worker.pass_rng(1, 0), stats)
    assert stats.failed_items == 1
    assert len(stats.latencies_ms) == 2
    want = "oracle" if kind == "oracle" else "flip"
    assert f"census:90 [{want}]" in stats.failures[0]


def test_untouched_tables_pass():
    stats = worker.PassStats()
    worker.timed_pass(_census_with(wl.load_table("census.json"), [90, 204]),
                      worker.pass_rng(1, 0), stats)
    assert stats.failed_items == 0
    assert stats.requested == stats.decided == 24
