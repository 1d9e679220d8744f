"""Dynamical analyses of endomorphisms: reversibility, eventual
periodicity, orbit-set quotients, chain transitivity, spreading states,
nilpotency, and visibly blocking sets.

These feed the coequalizer engine; the orbit-set construction is the
combinatorial replacement for the hyperspace quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis as an
from . import verdicts as v
from .automata import Word
from .core import (
    BlockMap,
    Presentation,
    compose,
    fiber_presentation,
    identity_map,
    make_block_map,
    maps_equal,
    reduce_radius,
    rule_image,
)
from .errors import BudgetExceeded, InternalError, ValidationError, check_budget
from .limits import connecting_map


def _require_endo(f: BlockMap) -> None:
    if not f.source.language_equal(f.target):
        raise ValidationError("this analysis needs an endomorphism")


def is_reversible(f: BlockMap, inverse_radius_cap: int = 8) -> v.Verdict:
    """Injective and surjective; YES carries the inverse when the bounded
    radius search finds it."""
    _require_endo(f)
    fam = an.injectivity_family(f)
    if not fam.injective:
        return v.no(note="not injective")
    surj = an.surjectivity(f)
    if surj.no:
        return v.no(witness=surj.witness, note="not surjective")
    try:
        inv = connecting_map(f, identity_map(f.source), radius_cap=inverse_radius_cap)
    except BudgetExceeded:
        return v.yes(note="bijective; inverse radius exceeds the search cap",
                     bound_used={"radius_cap": inverse_radius_cap})
    return v.yes(certificate=inv)


@dataclass(frozen=True)
class EventualPeriodicity:
    status: str  # "found" | "not-found-below-cap"
    preperiod: int = 0
    period: int = 0
    cap: int | None = None


def power(f: BlockMap, k: int) -> BlockMap:
    _require_endo(f)
    out = identity_map(f.source)
    for _ in range(k):
        out = reduce_radius(compose(f, out))
    return out


def eventual_periodicity(f: BlockMap, cap: int = 12) -> EventualPeriodicity:
    """Smallest (k, p) with f^k = f^(k+p), scanning compositions up to cap.

    Powers are canonicalized by radius reduction before comparison.
    """
    _require_endo(f)
    powers = [identity_map(f.source)]
    current = powers[0]
    for n in range(1, cap + 1):
        try:
            current = reduce_radius(compose(f, current))
        except BudgetExceeded:
            return EventualPeriodicity("not-found-below-cap", cap=n - 1)
        for k in range(len(powers)):
            if powers[k].radius == current.radius and maps_equal(powers[k], current):
                return EventualPeriodicity("found", preperiod=k, period=n - k)
        powers.append(current)
    return EventualPeriodicity("not-found-below-cap", cap=cap)


def _proper_divisors(p: int):
    return [q for q in range(1, p) if p % q == 0]


def is_visibly_eventually_periodic(f: BlockMap, ep: EventualPeriodicity) -> v.Verdict:
    """Every point has eventual period exactly ep.period: for each proper
    divisor q the set {x : f^k(x) = f^(k+q)(x)} must be empty."""
    if ep.status != "found":
        raise ValidationError("needs a found eventual periodicity")
    fk = power(f, ep.preperiod)
    for q in _proper_divisors(ep.period):
        fkq = power(f, ep.preperiod + q)
        e = an.equalizer_set(fk, fkq)
        if not e.is_empty():
            word = None
            for n in range(1, e.dfa.n + 2):
                for w in e.words(n):
                    if e.contains_periodic(w):
                        word = w
                        break
                if word:
                    break
            return v.no(witness={"divisor": q, "periodic_word": word})
    return v.yes()


def orbit_symbol(words: tuple[Word, ...]) -> str:
    parts = sorted("".join(w) if all(len(s) == 1 for s in w) else "|".join(w) for w in set(words))
    return "{" + ",".join(parts) + "}"


def orbit_subshift(f: BlockMap, k: int, p: int, window_cap: int = 4):
    """The orbit-set quotient: g identifying x with its forward orbit.

    The symbol of g(x) at i collects the width-(2n+1) words of
    f^k(x), ..., f^(k+p-1)(x) around i, with n grown until the kernel of g
    equals the orbit relation exactly.  Returns (presentation, g).
    """
    _require_endo(f)
    x = f.source
    stages = [power(f, k + j) for j in range(p)]
    orbit_rel = None
    for j in range(p):
        # {(x, y) : f^k(y) = f^(k+j)(x)}
        rel = fiber_presentation(stages[j], stages[0])
        orbit_rel = rel if orbit_rel is None else an.union_presentation(orbit_rel, rel)
    for n in range(0, window_cap + 1):
        g = _orbit_quotient_map(x, stages, n)
        ker = g.kernel
        if ker.language_equal(orbit_rel):
            if not maps_equal(compose(g, f), g):
                raise InternalError("orbit quotient failed to absorb the dynamics")
            return g.target, g
    raise BudgetExceeded("orbit quotient window cap exceeded")


def _orbit_quotient_map(x: Presentation, stages, n: int) -> BlockMap:
    r = max(s.radius for s in stages) + n
    rule: dict[Word, str] = {}
    tokens = set()
    for w in x.words(2 * r + 1):
        words = []
        for s in stages:
            sr = s.padded_rule(r - n)
            img = tuple(
                sr[w[i : i + 2 * (r - n) + 1]] for i in range(2 * n + 1)
            )
            words.append(img)
        tok = orbit_symbol(tuple(words))
        tokens.add(tok)
        rule[w] = tok
    target = rule_image(x, r, rule, sorted(tokens))
    return make_block_map(x, target, r, rule, validate_image=False)


def chain_transitive_level(f: BlockMap, n: int) -> bool:
    """Strong connectivity of the level-n chain graph on allowed words."""
    _require_endo(f)
    x = f.source
    if x.is_empty():
        return True
    r = f.radius
    nodes = x.words(n)
    idx = {w: i for i, w in enumerate(nodes)}
    succ: list[set[int]] = [set() for _ in nodes]
    for w in x.words(n + 2 * r):
        src = w[r : r + n]
        img = tuple(f.local(w[i : i + f.width()]) for i in range(n))
        if img in idx:
            succ[idx[src]].add(idx[img])
    comps = an.au.strongly_connected_components(range(len(nodes)), lambda i: succ[i])
    return len(comps) == 1


def chain_transitive_upto(f: BlockMap, cap: int) -> int:
    """Largest n <= cap with all levels 1..n chain transitive (0 if level 1
    already fails)."""
    for n in range(1, cap + 1):
        if not chain_transitive_level(f, n):
            return n - 1
    return cap


@dataclass(frozen=True)
class SpreadingReport:
    spreading_state: str | None
    nilpotent_at: int | None


def spreading_state(f: BlockMap) -> str | None:
    """A symbol that infects an adjacent cell under the rule."""
    _require_endo(f)
    x = f.source
    r = max(1, f.radius)
    rule = f.padded_rule(r)
    for s in x.alphabet:
        if not x.contains_periodic((s,)):
            continue
        for off in (1, -1):
            ok = True
            for w, val in rule.items():
                if (w[r] == s or w[r + off] == s) and val != s:
                    ok = False
                    break
            if ok:
                return s
    return None


def nilpotency_index(f: BlockMap, cap: int = 8) -> int | None:
    """Smallest n with f^n(X) a single uniform point, if within cap."""
    _require_endo(f)
    current = f.source
    fr = f
    for n in range(1, cap + 1):
        img = an.image(fr)
        if img.n_live() == 1 and len([a for a in img.alphabet if img.contains_word((a,))]) == 1 \
                and img.count_words(2) == 1:
            return n
        if img.language_equal(current):
            return None
        current = img
        try:
            fr = reduce_radius(compose(f, fr))
        except BudgetExceeded:
            return None
    return None


def spreading_nilpotent(f: BlockMap, cap: int = 8) -> SpreadingReport:
    return SpreadingReport(spreading_state(f), nilpotency_index(f, cap))


def visibly_blocking(f: BlockMap, words: list[Word], depth: int = 3) -> v.Verdict:
    """Bounded check that a word set blocks information flow.

    Condition (1), forward invariance of the window, is exact; condition
    (2) is verified up to ``depth`` iterations and a matching window, so a
    YES is only ever a bounded certificate.
    """
    _require_endo(f)
    x = f.source
    words = [tuple(w) for w in words]
    if not words:
        raise ValidationError("empty word set")
    ell = len(words[0])
    if any(len(w) != ell for w in words):
        raise ValidationError("blocking words must share a length")
    wset = set(words)
    r = f.radius
    for xi in x.words(ell + 2 * r):
        mid = xi[r : r + ell]
        if mid not in wset:
            continue
        img = tuple(f.local(xi[i : i + f.width()]) for i in range(ell))
        if img not in wset:
            return v.no(witness={"condition": 1, "window": mid, "image": img})
    side = _blocking_leak(f, wset, ell, depth, "right")
    if side is not None:
        return v.no(witness=side)
    from .core import mirror_map

    fm = mirror_map(f)
    wm = {tuple(reversed(w)) for w in wset}
    side = _blocking_leak(fm, wm, ell, depth, "left")
    if side is not None:
        return v.no(witness=side)
    return v.yes(bound_used={"depth": depth}, note="condition (2) verified up to the depth bound")


def _blocking_leak(f: BlockMap, wset, ell: int, depth: int, label: str):
    """Does a difference behind a blocking window ever cross it?

    Enumerates word pairs differing only left of the window and compares
    images on the positions just right of it, for each iterate up to depth.
    """
    x = f.source
    g = identity_map(x)
    for n in range(1, depth + 1):
        g = reduce_radius(compose(f, g))
        rn = g.radius
        if rn == 0:
            continue
        total = 3 * rn + ell
        check_budget(max(1, len(x.alphabet)) ** min(total, 22), "visible blocking")
        groups: dict[Word, set] = {}
        for w in x.words(total):
            if w[rn : rn + ell] not in wset:
                continue
            img = tuple(g.local(w[p : p + 2 * rn + 1]) for p in range(ell, ell + rn))
            groups.setdefault(w[rn:], set()).add(img)
        for key, outs in groups.items():
            if len(outs) > 1:
                return {"condition": 2, "side": label, "depth": n, "window": key[:ell]}
    return None
