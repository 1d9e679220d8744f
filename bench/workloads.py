"""The four benchmark workloads: census, enumerate, ladder and cli.

Each workload builds its inputs in ``__init__`` (this is part of set-up
time), names the items of one pass in a seeded order with ``order``, and
runs one item with ``run``.  ``run`` returns an ``Outcome`` holding the
answers the engine gave; ``check`` compares them with the committed
expected tables and classifies the item.

Answers are strings.  ``YES``/``NO`` (and ``exists``/``not-exists``,
mapped to ``YES``/``NO``) are decided; ``UNDECIDED`` and ``BUDGET`` (a
budget exit) are not.  An answer that disagrees with the oracle table is
an ``oracle`` failure; a decided answer that is the opposite of the answer
recorded at the parent commit is a ``flip`` failure.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(BENCH_DIR, "data")
CLI_DIR = os.path.join(DATA_DIR, "cli")

YES, NO, UNDECIDED, BUDGET = "YES", "NO", "UNDECIDED", "BUDGET"
NOT_DECIDED = (UNDECIDED, BUDGET)
_STATUS = {"exists": YES, "not-exists": NO, "undecided": UNDECIDED}


@dataclass
class Outcome:
    """What one item produced: answers by name, or the failure it hit."""

    answers: dict = field(default_factory=dict)
    failure: str | None = None  # "exception" | "deadline" | "oracle" | "flip"
    detail: str = ""


def bool_answer(value: bool) -> str:
    return YES if value else NO


def check(outcome: Outcome, oracle: dict, recorded: dict) -> Outcome:
    """Classify ``outcome`` against the oracle and recorded tables.

    An item that already failed keeps its failure.  Oracle entries are the
    exact expected answer; a not-decided answer never mismatches.  Recorded
    entries only catch a YES<->NO flip.
    """
    if outcome.failure:
        return outcome
    for name, want in oracle.items():
        got = outcome.answers.get(name)
        if got in NOT_DECIDED:
            continue
        if got != want:
            outcome.failure = "oracle"
            outcome.detail = f"{name}: got {got!r}, oracle says {want!r}"
            return outcome
    for name, was in recorded.items():
        got = outcome.answers.get(name)
        if {got, was} == {YES, NO}:
            outcome.failure = "flip"
            outcome.detail = f"{name}: got {got}, recorded {was}"
            return outcome
    return outcome


def load_table(name: str) -> dict:
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Items call the library through module attributes (``core.compose``,
    not a name bound at set-up), so the tracer's wrappers see them."""

    name = ""
    deadline_s = 10.0  # one item may take this long before it fails
    gauge = None  # the pass's speed gauge, for an item that waits on a child
    nominal_pass_s = 5.0  # pass time at the seed commit, sets passes per run

    n_items = 0

    def order(self, rng) -> list:
        """The item keys of one pass, in an order drawn from ``rng``."""
        keys = list(range(self.n_items))
        rng.shuffle(keys)
        return keys

    def run(self, key) -> Outcome:
        raise NotImplementedError

    def expected(self, key) -> tuple[dict, dict]:
        """(oracle, recorded) tables for one item."""
        raise NotImplementedError

    def label(self, key) -> str:
        return f"{self.name}:{key}"

    def end_pass(self) -> str | None:
        """Pass-level check; returns a failure detail or None."""
        return None


# ---------------------------------------------------------------------------
# Shared engine inputs


def shift_by_name(name: str):
    from sdcat.core import full_shift, make_presentation

    if name.startswith("full"):
        return full_shift([str(i) for i in range(int(name[4:]))])
    if name == "even":
        # even 0-runs between 1s: the classic strictly sofic shift
        return make_presentation(
            ["0", "1"], "graph",
            (["e", "o"], [("e", "o", "0"), ("o", "e", "0"), ("e", "e", "1")]),
        )
    raise ValueError(f"unknown shift {name!r}")


def census_rule(windows, bits: int) -> dict:
    """Rule number ``bits`` of the radius-1 binary census (window i -> bit i)."""
    return {w: str((bits >> i) & 1) for i, w in enumerate(windows)}


def and_rule_dict(windows) -> dict:
    return {w: str(int(w[1]) & int(w[2])) for w in windows}


def classify_answers(row: dict, prefix: str) -> dict:
    return {f"{prefix}.{k}": val.answer for k, val in row.items()}


# ---------------------------------------------------------------------------
# census


class Census(Workload):
    """All 256 radius-1 endomorphisms of the binary full shift.

    Item: ``make_block_map``, ``classify(f, K2)`` and ``is_monic(f, M2)``.
    """

    name = "census"
    deadline_s = 10.0
    nominal_pass_s = 4.0

    def __init__(self, table: dict | None = None):
        from sdcat import classify as cl
        from sdcat import core
        from sdcat.errors import BudgetExceeded
        from sdcat.limits import CategoryTag

        self.cl, self.core, self.BudgetExceeded = cl, core, BudgetExceeded
        self.K2, self.M2 = CategoryTag.parse("K2"), CategoryTag.parse("M2")
        self.full = shift_by_name("full2")
        windows = self.full.words(3)
        self.rules = [census_rule(windows, bits) for bits in range(256)]
        self.table = table if table is not None else load_table("census.json")
        self.rows = {row["bits"]: row for row in self.table["items"]}
        self.n_items = len(self.rules)

    def run(self, bits):
        try:
            f = self.core.make_block_map(self.full, self.full, 1, self.rules[bits])
            answers = classify_answers(self.cl.classify(f, self.K2), "K2")
            answers["M2.monic"] = self.cl.is_monic(f, self.M2).answer
        except self.BudgetExceeded:
            answers = {name: BUDGET for name in self.rows[bits]["recorded"]}
        return Outcome(answers)

    def expected(self, bits):
        row = self.rows[bits]
        return row["oracle"], row["recorded"]


# ---------------------------------------------------------------------------
# enumerate


class Enumerate(Workload):
    """Criterion 12: every radius-1 map full2 -> full3, composed with AND.

    Item: one ``next()`` of ``oracle.enumerate_block_maps`` (which runs
    ``make_block_map``), ``compose(h, and_rule)`` and ``maps_equal``.  One
    more item per pass runs ``coequalizer_id(and_rule, K3)``.
    """

    name = "enumerate"
    deadline_s = 10.0
    nominal_pass_s = 4.0
    COEQ = "coeq"

    def __init__(self, table: dict | None = None):
        from sdcat import colimits as co
        from sdcat import core
        from sdcat import oracle as orc
        from sdcat.errors import BudgetExceeded
        from sdcat.limits import CategoryTag

        self.co, self.core, self.orc, self.BudgetExceeded = co, core, orc, BudgetExceeded
        self.K3 = CategoryTag.parse("K3")
        full2, full3 = shift_by_name("full2"), shift_by_name("full3")
        self.and_rule = core.make_block_map(full2, full2, 1, and_rule_dict(full2.words(3)))
        self.spec = orc.EnumerationSpec(full2, full3, radius=1)
        self.table = table if table is not None else load_table("enumerate.json")
        self.invariant = set(self.table["invariant"])
        self.gen = None
        self.yielded = 0

    def order(self, rng):
        """The maps in generator order, with the coequalizer item at a seeded
        place; starts a fresh generator for the pass."""
        n = self.table["yielded"]
        keys = list(range(n))
        keys.insert(rng.randrange(n + 1), self.COEQ)
        self.gen = self.orc.enumerate_block_maps(self.spec)
        self.yielded = 0
        return keys

    def run(self, key):
        if key == self.COEQ:
            try:
                res = self.co.coequalizer_id(self.and_rule, self.K3)
            except self.BudgetExceeded:
                return Outcome({"coequalizer": BUDGET})
            return Outcome({"coequalizer": _STATUS[res.status]})
        h = next(self.gen)
        self.yielded += 1
        invariant = self.core.maps_equal(self.core.compose(h, self.and_rule), h)
        return Outcome({"invariant": bool_answer(invariant)})

    def expected(self, key):
        if key == self.COEQ:
            return self.table["coequalizer"], {}
        return {"invariant": bool_answer(key in self.invariant)}, {}

    def end_pass(self):
        count = self.yielded + sum(1 for _ in self.gen)
        if count != self.table["yielded"]:
            return f"enumeration yielded {count} maps, expected {self.table['yielded']}"
        return None


# ---------------------------------------------------------------------------
# ladder


LADDER_RUNGS = {
    # name: (source, target, radius, category, right-permutive)
    "r1_ternary": ("full3", "full3", 1, "K2", False),
    "r2_binary": ("full2", "full2", 2, "K2", False),
    "r1_quaternary": ("full4", "full4", 1, "K2", False),
    "r2_even_to_full2": ("even", "full2", 2, "K3", False),
    "r1_ternary_permutive": ("full3", "full3", 1, "K2", True),
    "r2_binary_permutive": ("full2", "full2", 2, "K2", True),
}


def ladder_rule(src, radius: int, outputs: str) -> dict:
    """Rule from its output string, one symbol per source window in order."""
    windows = src.words(2 * radius + 1)
    if len(windows) != len(outputs):
        raise ValueError("output string does not match the window count")
    return dict(zip(windows, outputs))


class Ladder(Workload):
    """Seeded rules at sizes where the automaton core's asymptotics show.

    Item: ``make_block_map``, ``classify``, ``injectivity_family`` and
    ``is_preinjective``.  The rule pool is committed with its expected
    verdicts; the run's seed orders it.
    """

    name = "ladder"
    deadline_s = 60.0
    nominal_pass_s = 6.5

    def __init__(self, table: dict | None = None):
        from sdcat import analysis as an
        from sdcat import classify as cl
        from sdcat import core
        from sdcat.errors import BudgetExceeded
        from sdcat.limits import CategoryTag

        self.an, self.cl, self.core = an, cl, core
        self.BudgetExceeded = BudgetExceeded
        self.table = table if table is not None else load_table("ladder.json")
        shifts = {}
        self.items = []
        for row in self.table["items"]:
            src_name, tgt_name, radius, cat, _ = LADDER_RUNGS[row["rung"]]
            for s in (src_name, tgt_name):
                if s not in shifts:
                    shifts[s] = shift_by_name(s)
            src, tgt = shifts[src_name], shifts[tgt_name]
            rule = ladder_rule(src, radius, row["outputs"])
            self.items.append((src, tgt, radius, CategoryTag.parse(cat), rule))
        self.n_items = len(self.items)

    def run(self, i):
        src, tgt, radius, cat, rule = self.items[i]
        try:
            f = self.core.make_block_map(src, tgt, radius, rule)
            answers = classify_answers(self.cl.classify(f, cat), "cls")
            fam = self.an.injectivity_family(f)
            answers["fam.injective"] = bool_answer(fam.injective)
            answers["fam.injective_on_periodic"] = bool_answer(fam.injective_on_periodic)
            answers["fam.injective_on_uniform"] = bool_answer(fam.injective_on_uniform)
            answers["preinjective"] = self.an.is_preinjective(f).answer
        except self.BudgetExceeded:
            answers = {name: BUDGET for name in self.table["items"][i]["recorded"]}
        return Outcome(answers)

    def expected(self, i):
        row = self.table["items"][i]
        return row["oracle"], row["recorded"]

    def label(self, i):
        return f"ladder:{self.table['items'][i]['rung']}#{i}"


# ---------------------------------------------------------------------------
# cli


def cli_env() -> dict:
    """Child environment: the repository's ``src`` first, default budget."""
    root = os.path.dirname(BENCH_DIR)
    env = dict(os.environ)
    env.pop("SDCAT_BUDGET", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_argv(command: dict) -> list[str]:
    """Command arguments with data file names made absolute."""
    out = []
    for arg in command["argv"]:
        path = os.path.join(CLI_DIR, arg)
        out.append(path if os.path.isfile(path) else arg)
    return out + ["--json"]


def cli_answers(command: dict, code: int, stdout: str) -> Outcome:
    """Answers of one CLI invocation, for the fields its expectation names."""
    fields = command["expect"]
    if code == 69:
        return Outcome({name: BUDGET for name in fields})
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(failure="exception", detail=f"exit {code}, no JSON report")
    answers = {}
    for name in fields:
        got = report.get(name)
        answers[name] = _STATUS.get(got, got) if name == "status" else got
    if code != command["exit"] and not (code == 2 and any(a == UNDECIDED for a in answers.values())):
        return Outcome(answers, failure="oracle", detail=f"exit {code}, expected {command['exit']}")
    return Outcome(answers)


class Cli(Workload):
    """Sequential ``python -m sdcat.cli ... --json`` invocations.

    One item is one child process; its latency covers interpreter start,
    ``import sdcat.cli``, the file loads and the command.
    """

    name = "cli"
    deadline_s = 60.0
    nominal_pass_s = 3.5

    def __init__(self, table: dict | None = None, in_process: bool = False):
        self.table = table if table is not None else load_table("cli.json")
        self.commands = self.table["commands"]
        self.argvs = [cli_argv(c) for c in self.commands]
        self.n_items = len(self.commands)
        self.env = cli_env()
        self.in_process = in_process
        if in_process:
            from sdcat import cli

            self.cli = cli
        else:
            # Children inherit the worker's CPU, so the reference work the
            # worker times while a child runs runs on the child's CPU.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def run(self, i):
        command, argv = self.commands[i], self.argvs[i]
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = self.cli.main(argv)
            return cli_answers(command, code, buf.getvalue())
        proc = subprocess.Popen(
            [sys.executable, "-m", "sdcat.cli", *argv], env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        end = time.monotonic() + self.deadline_s
        try:
            while True:
                wait = max(0.0, end - time.monotonic())
                try:
                    stdout, stderr = proc.communicate(
                        timeout=min(wait, self.gauge.every_s) if self.gauge else wait)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() >= end:
                        return Outcome(failure="deadline", detail=f"killed after {self.deadline_s} s")
                    self.gauge.sample()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if "Traceback" in stderr:
            return Outcome(failure="exception", detail=stderr.strip().splitlines()[-1])
        return cli_answers(command, proc.returncode, stdout)

    def expected(self, i):
        return self.commands[i]["expect"], {}

    def label(self, i):
        return "cli:" + " ".join(self.commands[i]["argv"])


WORKLOADS = {w.name: w for w in (Census, Enumerate, Ladder, Cli)}
