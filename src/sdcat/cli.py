"""Command-line interface.

Exit codes: 0 = YES / exists, 1 = NO / not-exists, 2 = UNDECIDED,
64 = parse error, 65 = validation error, 69 = budget exceeded,
70 = internal error (a failed consistency check, not an answer).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import analysis as an
from . import classify as cl
from . import colimits as co
from . import dynamics as dy
from . import limits as li
from . import oracle as orc
from . import verdicts as v
from .errors import ParseError, SdcatError
from .files import load_bmap, load_shift, save_bmap, save_shift
from .limits import CategoryTag


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    for key, val in report.items():
        print(f"{key}: {val}")


def _cmd_analyze(args) -> int:
    x = load_shift(args.shift)
    sft = an.is_sft(x)
    ps = an.periods(x)
    report = {
        "command": "analyze",
        "file": args.shift,
        "alphabet": list(x.alphabet),
        "states": x.n_live(),
        "empty": x.is_empty(),
        "transitive": an.is_transitive(x),
        "mixing": an.is_mixing(x),
        "sft": sft.answer,
        "window": (sft.certificate or {}).get("window") if sft.yes else None,
        "finite": an.is_finite(x),
        "countable": an.is_countable(x),
        "periods_upto": ps.upto(12),
        "period_residues": {
            "threshold": ps.threshold,
            "modulus": ps.modulus,
            "residues": ps.residues(),
        },
        "monoid_size": an.au.syntactic_monoid_size(x.dfa),
    }
    _emit(report, args.json)
    return 0


SHIFT, BMAP = ".shift", ".bmap"


def _injective(f) -> v.Verdict:
    fam = an.injectivity_family(f)
    return v.yes() if fam.injective else v.no(witness={"pair": fam.pair})


def _union(i1, i2) -> li.LimitResult:
    inc = li.subobject_union(i1, i2)
    return li.exists(inc.source, inc)


# Each check property and build operation: the files it reads, in order,
# and its engine call on the category and the inputs (a check's call takes
# the parsed arguments first).  The calls look their engine up when they
# run, so a patched or traced engine function is the one called.
CHECKS = {
    "epic": ((BMAP,), lambda a, cat, f: cl.is_epic(f, cat)),
    "monic": ((BMAP,), lambda a, cat, f: cl.is_monic(f, cat)),
    "split-epic": ((BMAP,), lambda a, cat, f: cl.is_split_epic(
        f, cat, p_cap=a.p_cap, radius_cap=a.radius_cap)),
    "split-monic": ((BMAP,), lambda a, cat, f: cl.is_split_monic(f, cat, radius_cap=a.radius_cap)),
    "regular-epic": ((BMAP,), lambda a, cat, f: cl.is_regular_epic(
        f, cat, witness_endo=load_bmap(a.witness_endo) if a.witness_endo else None)),
    "regular-monic": ((BMAP,), lambda a, cat, f: cl.is_regular_monic(f, cat)),
    "preinjective": ((BMAP,), lambda a, cat, f: an.is_preinjective(f)),
    "injective": ((BMAP,), lambda a, cat, f: _injective(f)),
    "peric": ((BMAP,), lambda a, cat, f: an.is_peric(f)),
    "exists-morphism": ((SHIFT, SHIFT), lambda a, cat, z, y: cl.exists_morphism(z, y)),
}

BUILDS = {
    "product": ((SHIFT, SHIFT), lambda cat, x, y: li.product(x, y)),
    "coproduct": ((SHIFT, SHIFT), lambda cat, x, y: li.coproduct(x, y, cat)),
    "pullback": ((BMAP, BMAP), lambda cat, f, g: li.pullback(f, g)),
    "equalizer": ((BMAP, BMAP), lambda cat, f, g: li.equalizer(f, g, cat)),
    "kernel-pair": ((BMAP,), lambda cat, f: li.kernel_pair(f)),
    "image": ((BMAP,), lambda cat, f: li.image_factorization(f, cat)),
    "union": ((BMAP, BMAP), lambda cat, i1, i2: _union(i1, i2)),
    "terminal": ((), lambda cat: li.terminal(cat)),
    "initial": ((), lambda cat: li.initial(cat)),
}


def _load(command: str, kinds, paths) -> list:
    """The input files of ``command``, counted before any is read."""
    if len(paths) != len(kinds):
        wanted = " ".join(kinds) or "no input file"
        raise ParseError(f"{command} takes {wanted}, given {len(paths)} file(s)")
    return [load_bmap(p) if kind == BMAP else load_shift(p) for kind, p in zip(kinds, paths)]


def _cmd_check(args) -> int:
    cat = CategoryTag.parse(args.category)
    kinds, call = CHECKS[args.property]
    inputs = _load(f"check {args.property}", kinds, args.inputs)
    if kinds == (BMAP,):
        li.check_morphism(cat, *inputs)
    verdict = call(args, cat, *inputs)
    report = {"command": f"check {args.property}", "category": str(cat)}
    report.update(verdict.brief())
    if args.cert_out and verdict.certificate is not None and hasattr(verdict.certificate, "rule_dict"):
        save_bmap(verdict.certificate, args.cert_out)
        report["certificate_file"] = args.cert_out
    _emit(report, args.json)
    return verdict.exit_code()


def _cmd_build(args) -> int:
    cat = CategoryTag.parse(args.category)
    kinds, call = BUILDS[args.operation]
    t0 = time.time()
    inputs = _load(f"build {args.operation}", kinds, args.inputs)
    for kind, obj in zip(kinds, inputs):
        (li.check_morphism if kind == BMAP else li.check_object)(cat, obj)
    res = call(cat, *inputs)
    report = {
        "command": f"build {args.operation}",
        "category": str(cat),
        "status": res.status,
        "seconds": round(time.time() - t0, 3),
    }
    if res.reason:
        report["reason"] = res.reason
    if res.exists and args.out:
        save_shift(res.object, args.out)
        report["object_file"] = args.out
        for i, leg in enumerate(res.legs, start=1):
            leg_path = args.out.rsplit(".", 1)[0] + f".leg{i}.bmap"
            save_bmap(leg, leg_path)
            report.setdefault("legs", []).append(leg_path)
    _emit(report, args.json)
    return res.exit_code()


def _cmd_coeq_id(args) -> int:
    cat = CategoryTag.parse(args.category)
    f = load_bmap(args.map)
    res = co.coequalizer_id(
        f, cat, window_cap=args.window_cap, level_cap=args.level_cap
    )
    report = {
        "command": "coeq-id",
        "category": str(cat),
        "status": res.status,
        "reason": res.reason,
    }
    if res.exists and args.out:
        save_bmap(res.legs[0], args.out)
        report["map_file"] = args.out
    _emit(report, args.json)
    return res.exit_code()


def _cmd_dynamics(args) -> int:
    f = load_bmap(args.map)
    rev = dy.is_reversible(f)
    ep = dy.eventual_periodicity(f, cap=args.cap)
    report = {
        "command": "dynamics",
        "reversible": rev.answer,
        "eventual_periodicity": (
            {"k": ep.preperiod, "p": ep.period}
            if ep.status == "found"
            else {"status": ep.status, "cap": ep.cap}
        ),
    }
    if ep.status == "found":
        report["visibly_eventually_periodic"] = dy.is_visibly_eventually_periodic(f, ep).answer
    levels = {}
    for n in range(1, args.levels + 1):
        levels[n] = dy.chain_transitive_level(f, n)
    report["chain_transitive_levels"] = levels
    rep = dy.spreading_nilpotent(f)
    report["spreading_state"] = rep.spreading_state
    report["nilpotent_at"] = rep.nilpotent_at
    _emit(report, args.json)
    return 0


def _cmd_oracle(args) -> int:
    if args.oracle_op != "census":
        raise SdcatError(f"unknown oracle operation {args.oracle_op}")
    if args.alphabet != 2 or args.radius != 1:
        raise SdcatError("the census covers radius 1 on the binary alphabet")
    checks = tuple(args.check.split(","))
    # every row is decided first, so an unknown check fails with nothing written
    rows = [(bits, row) for bits, _, row in orc.census_radius1_binary(checks=checks)]
    print("rule_bits," + ",".join(checks))
    for bits, row in rows:
        print(f"{bits}," + ",".join(str(int(row[c])) for c in checks))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdcat",
        description="Subshifts, block maps, and the twelve symbolic categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="shift-level report")
    p.add_argument("shift")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("check", help="morphism property verdicts")
    p.add_argument("property", choices=CHECKS)
    p.add_argument("inputs", nargs="*", help="one .bmap (two .shift for exists-morphism)")
    p.add_argument("--category", required=True)
    p.add_argument("--p-cap", type=int, default=cl.DEFAULT_P_CAP)
    p.add_argument("--radius-cap", type=int, default=cl.DEFAULT_RADIUS_CAP)
    p.add_argument("--witness-endo", help="endomorphism .bmap for regular-epic certification")
    p.add_argument("--cert-out", help="write a certificate .bmap here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build", help="limits and colimits")
    p.add_argument("operation", choices=BUILDS)
    p.add_argument("inputs", nargs="*")
    p.add_argument("--category", required=True)
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("coeq-id", help="coequalizer of (identity, f)")
    p.add_argument("map")
    p.add_argument("--category", required=True)
    p.add_argument("--window-cap", type=int, default=4)
    p.add_argument("--level-cap", type=int, default=6)
    p.add_argument("-o", "--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_coeq_id)

    p = sub.add_parser("dynamics", help="endomorphism dynamics report")
    p.add_argument("map")
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("oracle", help="brute-force census")
    p.add_argument("oracle_op", choices=["census"])
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--check", default="epic,injective")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 64 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SdcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
