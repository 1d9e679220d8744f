"""Regenerate the expected-verdict tables under ``bench/data``.

    python3 bench/gen_tables.py            # census, enumerate and ladder
    python3 bench/gen_tables.py ladder     # one table

Each table holds two kinds of expectation per item:

- ``oracle``: answers from ``sdcat.oracle``'s brute force (or, for the
  enumeration, from composing the rule tables directly), which does not go
  through the decision engine.  A timed run fails an item that disagrees.
- ``recorded``: every answer the engine gave when the table was made.  A
  timed run fails an item whose answer flips YES<->NO against it; a move
  between UNDECIDED and a decided answer only changes ``decided_frac``.

Timed runs only read these files.  ``cli.json`` is written by hand and is
not touched here.  Takes a few minutes; one process, no threads.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("SDCAT_BUDGET", None)

from sdcat import oracle as orc  # noqa: E402
from sdcat.core import make_block_map  # noqa: E402

import workloads as wl  # noqa: E402

COMMAND = "python3 bench/gen_tables.py"
LADDER_POOL_SEED = 2013
LADDER_RULES_PER_RUNG = 3
ORACLE_LIMIT_S = 120  # an oracle call that runs longer is left out of the table


class OracleTimeout(BaseException):
    pass


def _timeout(signum, frame):
    raise OracleTimeout()


def bounded(fn, *args):
    """``fn(*args)``, or None if it runs past ORACLE_LIMIT_S."""
    signal.setitimer(signal.ITIMER_REAL, ORACLE_LIMIT_S)
    try:
        return fn(*args)
    except OracleTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def commit_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def header() -> dict:
    return {"generated_by": COMMAND, "engine_commit": commit_sha()}


def write(name: str, table: dict) -> None:
    path = os.path.join(wl.DATA_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", flush=True)


def recorded_answers(workload, key) -> dict:
    outcome = workload.run(key)
    return dict(sorted(outcome.answers.items()))


def census_table() -> dict:
    stub = {"items": [{"bits": b, "oracle": {}, "recorded": {}} for b in range(256)]}
    census = wl.Census(table=stub)
    full = census.full
    items = []
    for bits in range(256):
        f = make_block_map(full, full, 1, census.rules[bits])
        oracle = {
            f"K2.{name}": wl.bool_answer(orc.brute_decide(prop, f))
            for name, prop in (("epic", "epic"), ("injective", "injective"),
                               ("monic", "monic_k2"), ("preinjective", "preinjective"))
        }
        items.append({"bits": bits, "oracle": oracle, "recorded": recorded_answers(census, bits)})
        if bits % 32 == 31:
            print(f"census {bits + 1}/256", flush=True)
    return {**header(), "items": items}


def enumerate_table() -> dict:
    """Invariant maps h (h o AND = h) found by composing rule tables
    directly on all width-5 windows, without the engine."""
    windows = [w for w in itertools.product("01", repeat=3)]
    invariant = []
    n = 0
    for index, values in enumerate(itertools.product("012", repeat=len(windows))):
        n += 1
        h = dict(zip(windows, values))
        ok = True
        for w in itertools.product("01", repeat=5):
            mid = tuple(str(int(w[i + 1]) & int(w[i + 2])) for i in range(3))
            if h[mid] != h[w[1:4]]:
                ok = False
                break
        if ok:
            invariant.append(index)
    # criterion 12 of the paper: the (id, AND) coequalizer exists in K3
    return {**header(), "yielded": n, "invariant": invariant,
            "coequalizer": {"coequalizer": wl.YES}}


def ladder_pool(rng: random.Random) -> list[dict]:
    rows = []
    for rung, (src_name, tgt_name, radius, _, permutive) in wl.LADDER_RUNGS.items():
        src, tgt = wl.shift_by_name(src_name), wl.shift_by_name(tgt_name)
        windows = src.words(2 * radius + 1)
        syms = sorted(tgt.alphabet)
        for _ in range(LADDER_RULES_PER_RUNG):
            if permutive:
                # right-permutive: a fixed shift of the last symbol, so surjective
                offset = {}
                out = []
                for w in windows:
                    k = offset.setdefault(w[:-1], rng.randrange(len(syms)))
                    out.append(syms[(k + syms.index(w[-1])) % len(syms)])
            else:
                out = [rng.choice(syms) for _ in windows]
            rows.append({"rung": rung, "outputs": "".join(out)})
    return rows


def ladder_table() -> dict:
    rows = ladder_pool(random.Random(LADDER_POOL_SEED))
    stub = {"items": [{**r, "oracle": {}, "recorded": {}} for r in rows]}
    ladder = wl.Ladder(table=stub)
    items = []
    for i, row in enumerate(rows):
        src, tgt, radius, _, rule = ladder.items[i]
        src_name = wl.LADDER_RUNGS[row["rung"]][0]
        f = make_block_map(src, tgt, radius, rule)
        oracle = {}
        t0 = time.perf_counter()
        if src_name.startswith("full"):
            pre = bounded(orc.brute_preinjective, f)
            if pre is not None:
                oracle["cls.preinjective"] = oracle["preinjective"] = wl.bool_answer(pre)
        if set(src.alphabet) == {"0", "1"}:
            sur = bounded(orc.brute_surjective, f)
            if sur is not None:
                oracle["cls.epic"] = wl.bool_answer(sur)
            if src_name == "full2":
                inj = bounded(orc.brute_injective, f)
                if inj is not None:
                    oracle["cls.injective"] = oracle["fam.injective"] = wl.bool_answer(inj)
        t1 = time.perf_counter()
        recorded = recorded_answers(ladder, i)
        print(f"ladder {row['rung']} #{i}: oracle {t1 - t0:.1f} s, engine "
              f"{time.perf_counter() - t1:.1f} s, {len(oracle)} oracle answers", flush=True)
        items.append({**row, "oracle": dict(sorted(oracle.items())), "recorded": recorded})
    return {**header(), "pool_seed": LADDER_POOL_SEED, "rules_per_rung": LADDER_RULES_PER_RUNG,
            "items": items}


TABLES = {"census": census_table, "enumerate": enumerate_table, "ladder": ladder_table}


def main(argv) -> int:
    signal.signal(signal.SIGALRM, _timeout)
    names = argv or list(TABLES)
    for name in names:
        if name not in TABLES:
            print(f"unknown table {name!r}; choose from {', '.join(TABLES)}", file=sys.stderr)
            return 2
    for name in names:
        write(f"{name}.json", TABLES[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
