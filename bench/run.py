"""sdcat benchmark: verdict-checked census, enumerate, ladder and cli workloads.

    python3 bench/run.py --workload census --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all      # every workload, as a table

Run from anywhere; the repository root is the parent of this directory and
the library is imported from its ``src``.  Each run:

1. makes one untimed CLI invocation, so the bytecode cache is warm as it is
   for users;
2. with ``--trace 0``, times set-up (fresh process to ready-to-time) in
   several fresh worker processes and reports the median as ``setup_s``;
3. runs the workload in a fresh worker process (``worker.py``) and checks
   every verdict against the expected tables under ``data``;
4. prints a human-readable report, then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` and
``--trace 1`` the per-layer ones; the names and units come from that file.
The traced run's spans are written to ``bench/out/spans_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 8  # fresh set-up-only processes per run, besides the measured one
RUN_LIMIT_S = 170.0  # a run must end within 180 s

from workloads import CLI_DIR, WORKLOADS, cli_env  # noqa: E402
from tracing import import_times_ms  # noqa: E402
from worker import REFERENCE_MS  # noqa: E402


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_sources() -> None:
    init = os.path.join(ROOT, "src", "sdcat", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no sdcat sources at {os.path.dirname(init)}")


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left


def warm_up(env: dict, deadline: Deadline) -> None:
    """One untimed CLI invocation; it also proves the CLI runs at all."""
    argv = [sys.executable, "-m", "sdcat.cli", "analyze",
            os.path.join(CLI_DIR, "golden.shift"), "--json"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=min(60.0, deadline.left()))
    if proc.returncode != 0:
        raise BenchError(f"warm-up CLI invocation exited {proc.returncode}: {proc.stderr.strip()}")


def run_worker(args: list[str], env: dict, deadline: Deadline) -> tuple[float, dict | None]:
    """Start ``worker.py``; returns (seconds to READY, RESULT dict or None)."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            if time.monotonic() > deadline.end:
                raise BenchError("run time limit reached")
        code = proc.wait(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"worker {' '.join(args)} exited {code}")
    return ready_s, result


def end_to_end(spec, res: dict, setup_samples: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": res["items_per_s"],
        "item_ms_p50": res["item_ms_p50"],
        "item_ms_tail": res["item_ms_tail"],
        "decided_frac": res["decided_frac"],
        "failed_frac": res["failed_frac"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec, res: dict, env: dict) -> dict:
    values = dict(res["layers"])
    values.update(import_times_ms(env))
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One workload run; returns (result line, report lines)."""
    spec = load_spec()
    check_sources()
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    deadline = Deadline(RUN_LIMIT_S)
    env = cli_env()
    warm_up(env, deadline)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    report = []
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans_{workload}.json")
        _, res = run_worker(common + ["--trace", "1", "--spans-out", spans], env, deadline)
        metrics = per_layer(spec, res, env)
        report.append(f"spans: {res['spans']} written to {os.path.relpath(spans, ROOT)}")
        report.append(f"errors.check_budget.max_size set by: {res['budget_max_label']!r}")
    else:
        # half the set-up probes before the measured worker and half after,
        # so that their median spans the run, not one phase of the machine
        probe = common + ["--setup-only"]
        setup = [run_worker(probe, env, deadline)[0] for _ in range(SETUP_PROBES // 2)]
        ready_s, res = run_worker(common + ["--trace", "0"], env, deadline)
        setup.append(ready_s)
        setup += [run_worker(probe, env, deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = end_to_end(spec, res, setup)
        report.append(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")
    env_rec = dict(res["env"], git_sha=git_sha(), seed=seed, seconds=seconds, trace=trace)
    report.append(f"environment: {json.dumps(env_rec, sort_keys=True)}")
    report.append(f"passes (s): {', '.join(f'{s:.3f}' for s in res['pass_s'])}")
    if trace:
        report.append(f"items: {res['attempted']} (one untraced pass, then the same pass traced)")
    else:
        of = "per-item medians" if res["tail_samples"] < res["attempted"] else "samples"
        report.append(f"item_ms_tail is p{res['tail_percentile']:.2f} of {res['tail_samples']} {of}")
        report.append(f"reference work: median {res['reference_ms_p50']:.4f} ms over "
                      f"{res['reference_runs']} rescalings, rescaled to {REFERENCE_MS} ms; "
                      f"item_ms_p50 as measured: {res['item_ms_p50_measured']:.6g} ms")
    report.append(f"failed_frac: {res['failed_frac']}  decided_frac: {res['decided_frac']} "
                  f"({res['requested']} verdicts requested)")
    report.append(f"items with UNDECIDED or budget-exit verdicts: {res['n_undecided_items']}")
    report.extend("  undecided " + u for u in res["undecided"])
    report.extend("  FAILED " + f for f in res["failures"])
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=f"{', '.join(WORKLOADS)} or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            line, report = run_one(name, args.seed, args.seconds, args.trace)
            results[name] = line
            print(f"== {name}")
            for r in report:
                print(r)
            for metric, mv in line["metrics"].items():
                print(f"{name:10s} {metric:45s} {mv['value']:>14.6g} {mv['unit']}")
            print(f"{name:10s} {'failed_frac':45s} {line['failed'] / line['attempted']:>14.6g} ratio")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
