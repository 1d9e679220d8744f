"""Coequalizers and the congruence machinery.

The general criterion routes through *local* equivalence relations: a
window-n equivalence on allowed words induces a subSFT relation, and such
relations are exactly the kernel sets of block maps.  Coequalizers of
(identity, f) dispatch through the exact special cases first and fall back
to a window-wise closure search, reporting UNDECIDED rather than guessing;
coequalizer existence is not decidable in general.
"""

from __future__ import annotations

from . import analysis as an
from . import dynamics as dy
from . import verdicts as v
from .analysis import SubshiftRelation
from .automata import Word
from .core import (
    BlockMap,
    Presentation,
    compose,
    constant_map,
    diagonal_relation,
    fiber_presentation,
    full_shift,
    identity_map,
    make_block_map,
    maps_equal,
    product_presentation,
    rule_image,
    shift_power,
    trivial_shift,
    zero_map,
)
from .errors import BudgetExceeded, InternalError, ValidationError, budget
from .limits import (
    CategoryTag,
    LimitResult,
    check_morphism,
    equalizer,
    exists,
    not_exists,
    object_problems,
    undecided_limit,
)
from .records import record


@record
class LocalEquivalence:
    """A window-n equivalence on allowed words and its quotient map, which
    sends each window to the class of its window-n word."""

    window: int
    classes: tuple[tuple[Word, ...], ...]
    quotient: BlockMap

    @property
    def relation(self) -> Presentation:
        """The induced relation: the kernel of the quotient map."""
        return self.quotient.kernel


def _equivalence_closure(words, pairs):
    """Union-find closure of the given pairs over the word list."""
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for u, w in pairs:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
    groups: dict[Word, list[Word]] = {}
    for w in words:
        groups.setdefault(find(w), []).append(w)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def local_closure(generator: Presentation, x: Presentation, window: int) -> LocalEquivalence:
    """Smallest window-``window`` local equivalence on x containing the
    generator relation."""
    classes = _equivalence_closure(x.words(window), (zip(*t) for t in generator.words(window)))
    return LocalEquivalence(window, classes, _quotient_map(x, window, classes))


def relation_checks(r: SubshiftRelation, period_bound: int = 4) -> dict:
    """Reflexivity, symmetry, and bounded transitivity of a relation."""
    x = r.left
    diag = diagonal_relation(x)
    reflexive = diag.included_in(r.presentation)
    symmetric = an.swap_relation(r).presentation.language_equal(r.presentation)
    transitive = True
    for p in range(1, period_bound + 1):
        periodic = set(r.presentation.periodic_words(p))
        by_left: dict[Word, list[Word]] = {}
        for t in periodic:
            u, w = zip(*t)
            by_left.setdefault(u, []).append(w)
        transitive = transitive and all(
            tuple(zip(u, w)) in periodic
            for u, mids in by_left.items() for m in mids for w in by_left.get(m, ()))
    return {"reflexive": reflexive, "symmetric": symmetric,
            "transitive_on_periodic": transitive}


def is_local_equivalence(r: SubshiftRelation, max_window: int = 6) -> v.Verdict:
    """Whether the relation is induced by a word equivalence at some
    window <= max_window.  NO is certified (window-independent) when the
    relation is not even a subSFT of the square."""
    checks = relation_checks(r)
    if not checks["reflexive"] or not checks["symmetric"]:
        raise ValidationError(f"relation is not an equivalence: {checks}")
    x = r.left
    for n in range(1, max_window + 1):
        loc = local_closure(r.presentation, x, n)
        if loc.relation.language_equal(r.presentation):
            return v.yes(certificate={"window": n, "classes": loc.classes})
    square = product_presentation(x, x)
    sub = an.is_subsft_of(r.presentation, square)
    if sub.no:
        return v.no(witness=sub.witness,
                    note="relation is not a subSFT of the square; never local")
    return v.no(bound_used=max_window, note=f"not local at any window <= {max_window}")


# ---------------------------------------------------------------------------
# Coequalizers of (identity, f)


def _trivial_reason(f: BlockMap) -> str | None:
    """Why the map to one point coequalizes the identity and ``f``, an
    endomorphism of a mixing shift, or None: a spreading state,
    nilpotency, or ``f`` being a shift power, tried in that order."""
    spread = dy.spreading_state(f)
    if spread is not None:
        return f"spreading state {spread!r}"
    nil = dy.nilpotency_index(f, cap=5)
    if nil is not None:
        return f"nilpotent at power {nil}"
    for k in range(-f.radius, f.radius + 1):
        if k != 0 and maps_equal(f, shift_power(f.source, k)):
            return f"shift power {k} on a mixing shift is chain transitive"
    return None


def coequalizer_id(
    f: BlockMap,
    cat: CategoryTag,
    window_cap: int = 4,
    level_cap: int = 6,
    ep_cap: int = 6,
) -> LimitResult:
    """Coequalizer of the identity and f, when a verdict is available.

    Exact branches: f = id; spreading or nilpotent endomorphisms of mixing
    shifts; eventually periodic endomorphisms of mixing SFTs; shift powers
    on mixing shifts.  Otherwise a window-wise closure search runs, and a
    stabilized closure yields the quotient map.
    """
    check_morphism(cat, f)
    x = f.source
    if maps_equal(f, identity_map(x)):
        return exists(x, identity_map(x), reason="f is the identity")

    mixing = an.is_mixing(x)
    reason = _trivial_reason(f) if mixing else None
    if reason is not None:
        t = trivial_shift("0")
        return exists(t, constant_map(x, t, "0"), reason=reason)

    if mixing and an.sft_window(x) is not None:
        ep = dy.eventual_periodicity(f, cap=ep_cap)
        if ep.status == "found":
            vep = dy.is_visibly_eventually_periodic(f, ep)
            if vep.no:
                return not_exists(
                    "eventually periodic but points have different eventual periods",
                    bound={"k": ep.preperiod, "p": ep.period, "witness": vep.witness},
                )
            try:
                target, q = orbit_subshift(f, ep.preperiod, ep.period)
            except BudgetExceeded as e:
                return undecided_limit(f"orbit quotient construction: {e}", bound={"budget": budget()})
            if object_problems(target, cat):
                return undecided_limit(
                    f"orbit quotient is not an object of {cat}; no verdict in this category"
                )
            return exists(target, q,
                          reason=f"visibly eventually periodic (k={ep.preperiod}, p={ep.period})")

    closure_result = _closure_search(f, cat, window_cap)
    if closure_result is not None:
        return closure_result
    if dy.is_reversible(f).yes:
        level = dy.chain_transitive_upto(f, level_cap)
        if level < level_cap:
            note = f"reversible, not chain transitive at level {level + 1}; trivial map is not the coequalizer"
        else:
            note = (
                f"reversible and chain transitive up to level {level_cap};"
                " leaning towards the trivial coequalizer but uncertified"
            )
        return undecided_limit(note, bound={"level_cap": level_cap})
    return undecided_limit(
        "no exact branch applied and the closure search did not stabilize",
        bound={"window_cap": window_cap, "ep_cap": ep_cap},
    )


def orbit_subshift(f: BlockMap, k: int, p: int):
    """The orbit quotient of an endomorphism with f^k = f^(k+p): the map
    that identifies x with y exactly when f^k(y) = f^(k+j)(x) for some
    j < p.  Returns (presentation, quotient).

    That orbit relation is the equivalence the graph of f generates, so
    when it is local at window n, the graph's local closure at window n
    equals it.  The windows run up to 2(R + 4) + 1, R the largest radius
    of f^k, ..., f^(k+p-1).
    """
    x = f.source
    stages = [dy.power(f, k + j) for j in range(p)]
    orbit_rel = None
    for j in range(p):
        # {(x, y) : f^k(y) = f^(k+j)(x)}
        rel = fiber_presentation(stages[j], stages[0])
        orbit_rel = rel if orbit_rel is None else an.union_presentation(orbit_rel, rel)
    gen = an.graph_relation(f).presentation
    bound = 2 * (max(s.radius for s in stages) + 4) + 1
    for n in range(1, bound + 1):
        loc = local_closure(gen, x, n)
        if loc.relation.language_equal(orbit_rel):
            q = loc.quotient
            if not maps_equal(compose(q, f), q):
                raise InternalError("orbit quotient failed to absorb the dynamics")
            return q.target, q
    raise BudgetExceeded(f"orbit relation is not local at any window <= {bound}")


def _closure_search(f: BlockMap, cat: CategoryTag, window_cap: int) -> LimitResult | None:
    x = f.source
    gen = an.graph_relation(f).presentation
    prev: LocalEquivalence | None = None
    for n in range(1, window_cap + 1):
        try:
            loc = local_closure(gen, x, n)
            stable = prev is not None and prev.relation.language_equal(loc.relation)
        except BudgetExceeded:
            return None
        if stable:
            q = prev.quotient
            if not maps_equal(compose(q, f), q):
                return None
            if object_problems(q.target, cat):
                return undecided_limit(
                    f"closure quotient is not an object of {cat}"
                )
            return exists(
                q.target,
                q,
                reason=f"local closure stabilized at window {prev.window}",
            )
        prev = loc
    return None


def _quotient_map(x: Presentation, n: int, classes) -> BlockMap:
    """The map that sends each window of radius ``n // 2`` to the class of
    its first ``n`` symbols, a word of ``x.words(n)``: its kernel is the
    relation that the classes induce."""
    rho = n // 2
    class_of = {w: f"c{i}" for i, cls in enumerate(classes) for w in cls}
    rule = {w: class_of[w[:n]] for w in x.words(2 * rho + 1)}
    target = rule_image(x, rho, rule, sorted(set(rule.values())))
    return make_block_map(x, target, rho, rule, validate_image=False)


# ---------------------------------------------------------------------------
# Kernels and cokernels in the pointed categories


def kernel_p(f: BlockMap, cat: CategoryTag) -> LimitResult:
    if not cat.pointed:
        raise ValidationError("kernels need a pointed category")
    check_morphism(cat, f)
    return equalizer(f, zero_map(f.source, f.target), cat)


def cokernel_p(f: BlockMap, cat: CategoryTag) -> LimitResult:
    if not cat.pointed:
        raise ValidationError("cokernels need a pointed category")
    check_morphism(cat, f)
    y = f.target
    if maps_equal(f, zero_map(f.source, y)):
        return exists(y, identity_map(y), reason="cokernel of the zero map is the identity")
    surj = an.surjectivity(f)
    if surj.yes:
        t = trivial_shift(y.point if y.point is not None else "0")
        return exists(t, constant_map(y, t, t.point), reason="cokernel of a surjection is the zero map")
    h = _cokernel_diagnostic(f, an.missed_word(f))
    return LimitResult(
        "not-exists",
        reason="morphism is neither surjective nor zero",
        legs=(h,) if h is not None else (),
    )


def _cokernel_diagnostic(f: BlockMap, missing: Word) -> BlockMap | None:
    """The separating map used to refute cokernels: indicator of image
    windows, at the length of the target word ``missing`` outside the
    image."""
    y = f.target
    img = an.image(f)
    rp = max(1, len(missing))
    target = full_shift(["0", "1"], point="0")
    img_words = set(img.words(rp))
    rule = {}
    for w in y.words(2 * rp + 1):
        rule[w] = "0" if w[rp : 2 * rp] in img_words else "1"
    try:
        return make_block_map(y, target, rp, rule, validate_image=False)
    except ValidationError:
        return None