"""Dynamical analyses of endomorphisms: reversibility, eventual
periodicity and its powers, chain transitivity, spreading states,
nilpotency, and visibly blocking sets.

These feed the coequalizer engine, which builds the orbit quotient of an
eventually periodic map as a local closure (``colimits.orbit_subshift``).
"""

from __future__ import annotations

from . import analysis as an
from . import verdicts as v
from .automata import Word
from .core import (
    BlockMap,
    compose,
    identity_map,
    image_word,
    maps_equal,
    mirror_map,
    reduce_radius,
    _center_index,
    _per_object,
    _window_table,
    _word_list,
)
from .errors import BudgetExceeded, ValidationError, check_budget
from .limits import CONNECTING_RADIUS_CAP, inverse
from .records import record


def _require_endo(f: BlockMap) -> None:
    if not f.source.language_equal(f.target):
        raise ValidationError("this analysis needs an endomorphism")


def is_reversible(f: BlockMap) -> v.Verdict:
    """Injective and surjective.  A YES carries the kept inverse of
    ``limits.inverse``, the same map that decides the bijection's split
    verdicts in ``classify``, when its radius is within
    ``CONNECTING_RADIUS_CAP``."""
    _require_endo(f)
    fam = an.injectivity_family(f)
    if not fam.injective:
        return v.no(witness={"pair": fam.pair}, note="not injective")
    surj = an.surjectivity(f)
    if surj.no:
        return v.no(witness=surj.witness, note="not surjective")
    try:
        inv = inverse(f)
    except BudgetExceeded:
        return v.yes(note="bijective; inverse radius exceeds the search cap",
                     bound_used={"radius_cap": CONNECTING_RADIUS_CAP})
    return v.yes(certificate=inv)


@record
class EventualPeriodicity:
    status: str  # "found" | "not-found-below-cap"
    preperiod: int = 0
    period: int = 0
    cap: int | None = None


@_per_object
def power(f: BlockMap, k: int) -> BlockMap:
    """f^k at its smallest radius, f after f^(k-1), composed once per k."""
    _require_endo(f)
    if k == 0:
        return identity_map(f.source)
    return reduce_radius(compose(f, power(f, k - 1)))


def eventual_periodicity(f: BlockMap, cap: int = 12) -> EventualPeriodicity:
    """Smallest (k, p) with f^k = f^(k+p), scanning powers up to cap.

    Powers are canonicalized by radius reduction before comparison.
    """
    _require_endo(f)
    for n in range(1, cap + 1):
        try:
            current = power(f, n)
        except BudgetExceeded:
            return EventualPeriodicity("not-found-below-cap", cap=n - 1)
        for k in range(n):
            if power(f, k).radius == current.radius and maps_equal(power(f, k), current):
                return EventualPeriodicity("found", preperiod=k, period=n - k)
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
            word = next((w for n in range(1, e.dfa.n + 2) for w in e.periodic_words(n)), None)
            return v.no(witness={"divisor": q, "periodic_word": word})
    return v.yes()


def chain_transitive_level(f: BlockMap, n: int) -> bool:
    """Strong connectivity of the level-n chain graph on allowed words."""
    _require_endo(f)
    x = f.source
    if x.is_empty():
        return True
    nodes = x.words(n)
    succ: list[set[int]] = [set() for _ in nodes]
    for i, j in zip(_center_index(x, n, f.radius), _window_table(f, n)):
        succ[i].add(j)
    comps = an.au.strongly_connected_components(range(len(nodes)), lambda i: succ[i])
    return len(comps) == 1


def chain_transitive_upto(f: BlockMap, cap: int) -> int:
    """Largest n <= cap with all levels 1..n chain transitive (0 if level 1
    already fails)."""
    for n in range(1, cap + 1):
        if not chain_transitive_level(f, n):
            return n - 1
    return cap


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
    """Smallest n with f^n(X) a single uniform point, if within cap.

    A nilpotent map sends every periodic point to its one uniform limit.
    So f is applied to the period-n points, n up to cap, until their set
    stops shrinking: two or more left are permuted by f, which refutes
    nilpotency with no power composed.  Past the budget the powers decide.
    """
    _require_endo(f)
    for n in range(1, cap + 1):
        try:
            words, image = None, set(f.source.periodic_words(n))
        except BudgetExceeded:
            break
        while image != words:
            words, image = image, {image_word(f, w) for w in image}
        if len(words) > 1:
            return None
    current = f.source
    for n in range(1, cap + 1):
        try:
            fn = power(f, n)
        except BudgetExceeded:
            return None
        img = an.image(fn)
        if img.n_live() == 1 and len(img.live_symbols) == 1 and img.count_words(2) == 1:
            return n
        if img.language_equal(current):
            return None
        current = img
    return None


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
    mids, imgs = _word_list(x, ell), _word_list(f.target, ell)
    for i, j in zip(_center_index(x, ell, f.radius), _window_table(f, ell)):
        if mids[i] in wset and imgs[j] not in wset:
            return v.no(witness={"condition": 1, "window": mids[i], "image": imgs[j]})
    side = _blocking_leak(f, wset, ell, depth, "right")
    if side is not None:
        return v.no(witness=side)
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
    for n in range(1, depth + 1):
        g = power(f, n)
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
