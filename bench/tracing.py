"""Spans and counters around the public functions of each ``sdcat`` module.

The tracer wraps functions from outside: ``install`` replaces every
binding of a traced function object in every loaded ``sdcat`` module
(name imports such as ``check_budget`` in ``analysis`` included) and the
traced ``Presentation`` methods at class level, and ``uninstall`` puts the
originals back.  No file of the library changes.

A span is (name, start, end, parent), kept in memory in four parallel
lists.  A span's self time is its duration minus the durations of its
direct children; calls nest, so children never overlap.  Time outside
every span is the ``other`` bucket, so the self times plus ``other`` add up
to the traced pass's wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span?) for every traced function.  A traced function
# without a span only counts calls: its time stays in its caller.
TRACED = [
    ("automata", "determinize", True),
    ("automata", "minimize", True),
    ("automata", "product_dfa", True),
    ("automata", "words_of_length", True),
    ("core", "presentation_from_nfa", True),
    ("core", "image_presentation", True),
    ("core", "window_graph", True),
    ("core", "make_block_map", True),
    ("core", "compose", True),
    ("core", "maps_equal", True),
    ("core", "Presentation.words", False),
    ("core", "Presentation.language_equal", True),
    ("analysis", "kernel_set", True),
    ("analysis", "constituents", True),
    ("analysis", "is_preinjective", True),
    ("analysis", "is_subsft_of", True),
    ("analysis", "periods", True),
    ("classify", "classify", True),
    ("classify", "strong_condition", True),
    ("classify", "find_section", True),
    ("classify", "find_retraction", True),
    ("colimits", "coequalizer_id", True),
    ("dynamics", "eventual_periodicity", True),
    ("limits", "check_morphism", True),
    ("oracle", "enumerate_block_maps", True),
    ("files", "load_shift", True),
    ("files", "load_bmap", True),
    ("cli", "main", True),
    ("errors", "check_budget", False),
]


def _record(tracer, name, args, kwargs, result):
    """Per-function counters, taken where the work happens."""
    c = tracer.counts
    if name == "automata.determinize":
        c[name + ".states_out"] += result.n
    elif name == "automata.minimize":
        c[name + ".states_in"] += args[0].n
        c[name + ".states_out"] += result.n
    elif name == "automata.product_dfa":
        c[name + ".states_out"] += result.n
    elif name == "automata.words_of_length":
        c[name + ".words_out"] += len(result)
    elif name == "core.presentation_from_nfa":
        nfa = args[1] if len(args) > 1 else kwargs["nfa"]
        c[name + ".nfa_states_in"] += nfa.n
        c[name + ".live_states_out"] += result.n_live()
    elif name == "core.window_graph":
        c[name + ".nodes_out"] += len(result[0])
    elif name == "core.Presentation.words":
        tracer.keys[name].add(hash((args[0], args[1] if len(args) > 1 else kwargs["n"])))
    elif name == "analysis.kernel_set":
        tracer.keys[name].add(hash(args[0]))
        c[name + ".states_out"] += result.presentation.n_live()
    elif name in ("classify.find_section", "classify.find_retraction"):
        c[name + ".found"] += result is not None
    elif name == "errors.check_budget":
        size = args[0] if args else kwargs["size"]
        if size > tracer.budget_max[0]:
            tracer.budget_max = (size, args[1] if len(args) > 1 else kwargs.get("what", ""))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.budget_max: tuple[int, str] = (0, "")
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self.stack.pop()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per next(), so generator set-up and each yielded
                # item are timed where they are consumed
                tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    i = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        if not span:
            @functools.wraps(fn)
            def count_wrapper(*args, **kwargs):
                # counted before the call, so a budget exit still shows its size
                tracer.calls[name] += 1
                _record(tracer, name, args, kwargs, None)
                return fn(*args, **kwargs)

            return count_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            _record(tracer, name, args, kwargs, result)
            return result

        return span_wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded sdcat modules."""
        import sdcat.cli  # noqa: F401  (loads every module that has traced functions)

        modules = [m for k, m in sorted(sys.modules.items()) if k == "sdcat" or k.startswith("sdcat.")]
        for mod_name, attr, span in TRACED:
            home = sys.modules[f"sdcat.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, span))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, span)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.starts, self.ends, self.parents)

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names once, then (name id, start, end, parent)."""
        ids: dict[str, int] = {}
        rows = []
        for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
            rows.append([ids.setdefault(name, len(ids)), s, e, p])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(ids), "spans": rows}, fh, separators=(",", ":"))


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Sum of span duration minus direct children's durations, per name."""
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += ends[i] - starts[i] - child[i]
    return dict(out)


def root_time(starts, ends, parents) -> float:
    return sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, before the CLI import times."""
    selfs = tracer.self_times()
    calls, counts, keys = tracer.calls, tracer.counts, tracer.keys
    m: dict[str, float] = {}
    for mod_name, attr, span in TRACED:
        name = f"{mod_name}.{attr}"
        if span:
            m[name + ".self_s"] = selfs.get(name, 0.0)
        m[name + ".calls"] = float(calls.get(name, 0))
    for key, val in counts.items():
        m[key] = float(val)
    m["automata.minimize.kept_ratio"] = _ratio(
        counts.get("automata.minimize.states_out", 0), counts.get("automata.minimize.states_in", 0)
    )
    for name in ("core.Presentation.words", "analysis.kernel_set"):
        m[name + ".distinct_ratio"] = _ratio(len(keys.get(name, ())), calls.get(name, 0))
    for name in ("classify.find_section", "classify.find_retraction"):
        m[name + ".found_ratio"] = _ratio(counts.get(name + ".found", 0), calls.get(name, 0))
    # candidates tried = make_block_map spans opened inside enumeration spans
    enum = "oracle.enumerate_block_maps"
    tried = sum(
        1 for n, p in zip(tracer.names, tracer.parents)
        if p >= 0 and n == "core.make_block_map" and tracer.names[p] == enum
    )
    m[enum + ".valid_ratio"] = _ratio(counts.get(enum + ".yielded", 0), tried)
    m["errors.check_budget.max_size"] = float(tracer.budget_max[0])
    m["trace.pass_s"] = pass_s
    m["trace.other_s"] = pass_s - root_time(tracer.starts, tracer.ends, tracer.parents)
    return m


def import_times_ms(env: dict, runs: int = 3) -> dict[str, float]:
    """Cumulative import time of ``sdcat.cli`` and ``numpy`` from a fresh
    ``python -X importtime``; the median of ``runs`` processes."""
    import statistics
    import subprocess

    got: dict[str, list[float]] = {"cli.import_ms": [], "cli.import.numpy_ms": []}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sdcat.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not parts[1].isdigit():
                continue
            if parts[2] == "sdcat.cli":
                got["cli.import_ms"].append(int(parts[1]) / 1000)
            elif parts[2] == "numpy":
                got["cli.import.numpy_ms"].append(int(parts[1]) / 1000)
    return {k: statistics.median(v) if v else 0.0 for k, v in got.items()}
