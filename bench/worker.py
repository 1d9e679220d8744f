"""One workload in one fresh process: set up, then timed passes.

    python3 bench/worker.py --workload census --seed 1 --seconds 18 --trace 0

Prints ``READY`` once set-up is done (``--setup-only`` exits there), then
one line ``RESULT {...}`` with the pass statistics.  ``bench/run.py``
starts this process; run it directly only to debug a workload.

A run measures whole passes over the workload's items, in an order drawn
from the seed; the pass count is ``seconds / nominal pass time``, so every
run of a workload measures the same items unless the machine is so slow
that the run would last more than ``SLOW_CAP`` times ``seconds``.  Each
item's time is rescaled to a fixed machine speed (``SpeedGauge``), and its
latency is the median of its rescaled times over the run's passes.
With ``--trace 1`` it makes one untraced pass, then the same pass again
under the tracer, and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

from workloads import NOT_DECIDED, WORKLOADS, Outcome, check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


# On a machine much slower than at the seed commit, a run stops before a pass
# that would end after this many times --seconds.
SLOW_CAP = 1.6
# With this many distinct items the ten-beyond rule reaches p90 over the
# per-item latencies alone.
TAIL_MIN_ITEMS = 100
# The reference work: its loop count, its time on the machine the benchmark
# was built on (a 2-core Xeon virtual machine at its fastest), and how often
# the speed gauge runs it, in seconds of CPU time and, between items, of
# wall time.
REFERENCE_LOOPS = 2000
REFERENCE_MS = 0.25
REFERENCE_EVERY_S = 0.02


class ItemDeadline(BaseException):
    """Raised by the alarm inside an item that ran past its deadline.

    A ``BaseException`` so that no ``except Exception`` in the engine can
    swallow it."""


def _alarm(signum, frame):
    raise ItemDeadline()


def tail_latency(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has at
    least ten samples beyond it: the (n-10)-th smallest of n samples.
    With ten samples or fewer, the maximum at percentile 100."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_item(workload, key, gauge=None):
    """Time one item; returns (seconds, outcome, oracle, recorded), with the
    outcome's failure classified against the expected tables.  The time
    the ``gauge`` spends inside the item is not counted."""
    signal.setitimer(signal.ITIMER_REAL, workload.deadline_s + 1.0)
    gauge_s = gauge.spent_s if gauge else 0.0
    t0 = time.perf_counter()
    try:
        outcome = workload.run(key)
    except ItemDeadline:
        outcome = Outcome(failure="deadline", detail=f"passed {workload.deadline_s} s")
    except Exception as exc:  # any raise the item did not expect is a failure
        outcome = Outcome(failure="exception", detail=f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - t0 - ((gauge.spent_s - gauge_s) if gauge else 0.0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    if elapsed > workload.deadline_s and not outcome.failure:
        outcome.failure, outcome.detail = "deadline", f"took {elapsed:.2f} s"
    oracle, recorded = workload.expected(key)
    return elapsed, check(outcome, oracle, recorded), oracle, recorded


class PassStats:
    """Latencies, failures and verdict counts over the timed passes."""

    def __init__(self):
        self.latencies_ms: list[float] = []  # as measured, in run order
        self.keys: list = []  # the item of each entry of latencies_ms
        self.by_key: dict[object, list[float]] = {}  # per item, rescaled
        self.failures: list[str] = []
        self.failed_items = 0
        self.undecided: list[str] = []
        self.requested = 0
        self.decided = 0
        self.pass_s: list[float] = []
        self.reference_ms: list[float] = []
        self.unscaled: list[tuple[list[float], int]] = []

    def scale(self, reference_ms: float):
        """Rescale the samples added since the last call to the machine
        speed at which the reference work takes REFERENCE_MS."""
        self.reference_ms.append(reference_ms)
        for samples, i in self.unscaled:
            samples[i] *= REFERENCE_MS / reference_ms
        self.unscaled.clear()

    def add(self, workload, key, seconds, outcome, oracle, recorded):
        self.latencies_ms.append(seconds * 1000.0)
        self.keys.append(key)
        samples = self.by_key.setdefault(key, [])
        samples.append(seconds * 1000.0)
        self.unscaled.append((samples, len(samples) - 1))
        names = set(oracle) | set(recorded) | set(outcome.answers)
        open_names = sorted(n for n in names if outcome.answers.get(n) in NOT_DECIDED)
        self.requested += len(names)
        self.decided += sum(1 for n in names if outcome.answers.get(n) not in NOT_DECIDED + (None,))
        if outcome.failure:
            self.failed_items += 1
            self.failures.append(f"{workload.label(key)} [{outcome.failure}] {outcome.detail}")
        elif open_names:
            self.undecided.append(f"{workload.label(key)}: {', '.join(open_names)}")


def reference_work(loops: int = REFERENCE_LOOPS) -> int:
    """Fixed pure-Python work (dict reads and writes, int arithmetic) that
    allocates no object the garbage collector tracks."""
    counts: dict[int, int] = {}
    for i in range(loops):
        k = i % 61
        counts[k] = counts.get(k, 0) + i
    return len(counts)


class SpeedGauge:
    """Times the reference work, to gauge how fast the CPU runs right now.

    While started, a profiling timer runs the reference work every
    REFERENCE_EVERY_S of CPU time, so also in the middle of a long item;
    ``due`` asks for one more run between items when none has run for that
    long in wall time.  An item that waits on a child (``cli``) calls
    ``sample`` every ``every_s`` while it waits.  The gauge's own time is
    in ``spent_s``, which ``run_item`` takes out of the item's time."""

    every_s = REFERENCE_EVERY_S

    def __init__(self):
        self.times_ms: list[float] = []  # reference times not yet applied
        self.spent_s = 0.0
        self.last = time.perf_counter()

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_work()
        self.last = time.perf_counter()
        self.times_ms.append((self.last - t0) * 1000.0)
        self.spent_s += self.last - t0

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.every_s

    def take(self) -> float:
        """Mean reference time since the last ``take``."""
        mean = statistics.fmean(self.times_ms)
        self.times_ms.clear()
        return mean

    def __enter__(self):
        self.previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)


def timed_pass(workload, rng, stats: PassStats, scaled: bool = True) -> float:
    """One pass over the workload's items.  With ``scaled``, every item's
    time is rescaled by the mean reference time measured during it or
    soon after it (``SpeedGauge``)."""
    keys = workload.order(rng)
    gc.collect()
    gauge = SpeedGauge() if scaled else None
    workload.gauge = gauge
    with gauge or contextlib.nullcontext():
        t0 = time.perf_counter()
        for key in keys:
            seconds, outcome, oracle, recorded = run_item(workload, key, gauge)
            stats.add(workload, key, seconds, outcome, oracle, recorded)
            if gauge and (gauge.times_ms or gauge.due()):
                if not gauge.times_ms:
                    gauge.sample()
                stats.scale(gauge.take())
        pass_s = time.perf_counter() - t0
        if gauge and stats.unscaled:
            gauge.sample()
            stats.scale(gauge.take())
    bad = workload.end_pass()
    if bad:
        stats.failed_items += 1
        stats.failures.append(f"{workload.name} pass [oracle] {bad}")
    stats.pass_s.append(pass_s)
    return pass_s


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    from importlib import metadata

    from sdcat import errors

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "budget": errors.budget(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def summary(stats: PassStats) -> dict:
    """Latency and throughput statistics of the run.

    An item's latency is the median of its rescaled times over the run's
    passes.  Throughput and the median come from these per-item latencies,
    and so does the tail when there are at least TAIL_MIN_ITEMS items; with
    fewer, the tail takes every rescaled sample instead, so that it stays
    above the median."""
    lat = stats.latencies_ms
    measured: dict[object, list[float]] = {}
    for key, ms in zip(stats.keys, lat):
        measured.setdefault(key, []).append(ms)
    per_item = [statistics.median(v) for v in stats.by_key.values()]
    every = [ms for v in stats.by_key.values() for ms in v]
    tail_samples = per_item if len(per_item) >= TAIL_MIN_ITEMS else every
    tail, pct = tail_latency(tail_samples)
    attempted = len(lat)
    return {
        "attempted": attempted,
        "failed": stats.failed_items,
        "items_per_s": len(per_item) / (sum(per_item) / 1000.0),
        "item_ms_p50": statistics.median(per_item),
        "item_ms_tail": tail,
        "tail_percentile": pct,
        "tail_samples": len(tail_samples),
        "decided_frac": stats.decided / stats.requested if stats.requested else 1.0,
        "failed_frac": stats.failed_items / attempted,
        "requested": stats.requested,
        "failures": stats.failures[:50],
        "undecided": stats.undecided[:200],
        "n_undecided_items": len(stats.undecided),
        "pass_s": stats.pass_s,
        "reference_ms_p50": statistics.median(stats.reference_ms) if stats.reference_ms else None,
        "reference_runs": len(stats.reference_ms),
        "item_ms_p50_measured": statistics.median(statistics.median(v) for v in measured.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sdcat", "__init__.py")):
        print(f"error: no sdcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SDCAT_BUDGET", None)
    import sdcat

    if os.path.dirname(os.path.abspath(sdcat.__file__)) != os.path.join(SRC, "sdcat"):
        print(f"error: sdcat imported from {sdcat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workload = cls(in_process=True) if (args.trace and args.workload == "cli") else cls()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    result = {"env": environment()}
    if not args.trace:
        stats = PassStats()
        passes = max(1, round(args.seconds / workload.nominal_pass_s))
        spent = 0.0
        for index in range(passes):
            spent += timed_pass(workload, pass_rng(args.seed, index), stats)
            if spent * (index + 2) / (index + 1) > SLOW_CAP * args.seconds:
                break  # another pass would end past the cap: a much slower machine
        result.update(summary(stats))
        result["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli")
    else:
        from tracing import Tracer, layer_metrics

        plain = PassStats()
        plain_s = timed_pass(workload, pass_rng(args.seed, 0), plain, scaled=False)
        tracer = Tracer()
        tracer.install()
        traced = PassStats()
        try:
            traced_s = timed_pass(workload, pass_rng(args.seed, 0), traced, scaled=False)
        finally:
            tracer.uninstall()
        result.update(summary(traced))
        result["attempted"] += len(plain.latencies_ms)
        result["failed"] += plain.failed_items
        result["failures"] = (plain.failures + traced.failures)[:50]
        layers = layer_metrics(tracer, traced_s)
        layers["trace_overhead_frac"] = traced_s / plain_s - 1.0
        result["layers"] = layers
        result["budget_max_label"] = tracer.budget_max[1]
        result["spans"] = len(tracer.names)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
