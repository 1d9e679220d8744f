"""Coequalizers and the congruence machinery.

The general criterion routes through *local* equivalence relations: a
window-n equivalence on allowed words induces a subSFT relation, and such
relations are exactly the kernel sets of block maps.  Coequalizers of
(identity, f) dispatch through the exact special cases first and fall back
to a window-wise closure search, reporting UNDECIDED rather than guessing;
coequalizer existence is not decidable in general.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    full_shift,
    identity_map,
    make_block_map,
    maps_equal,
    pair_symbol,
    presentation_from_allowed_words,
    product_presentation,
    rule_image,
    shift_power,
    split_pair,
    trivial_shift,
)
from .errors import BudgetExceeded, ValidationError
from .limits import (
    CategoryTag,
    LimitResult,
    check_morphism,
    exists,
    not_exists,
    object_problems,
    undecided_limit,
)


@dataclass(frozen=True)
class LocalEquivalence:
    """A window-n equivalence on allowed words and the relation it induces."""

    window: int
    classes: tuple[tuple[Word, ...], ...]
    relation: Presentation

    def pairs(self):
        for cls in self.classes:
            for u in cls:
                for w in cls:
                    yield (u, w)


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


def _zip_pair_word(u: Word, w: Word) -> Word:
    return tuple(pair_symbol(a, b) for a, b in zip(u, w))


def _unzip_pair_word(t: Word) -> tuple[Word, Word]:
    pairs = [split_pair(s) for s in t]
    return tuple(a for a, _ in pairs), tuple(b for _, b in pairs)


def relation_from_classes(x: Presentation, window: int, classes) -> Presentation:
    """The subshift relation induced by a word equivalence: the square of x
    constrained to windows whose aligned pairs are equivalent."""
    allowed = []
    for cls in classes:
        for u in cls:
            for w in cls:
                allowed.append(_zip_pair_word(u, w))
    sft = presentation_from_allowed_words(
        tuple(pair_symbol(a, b) for a in x.alphabet for b in x.alphabet), allowed
    )
    return an.intersection_presentation(product_presentation(x, x), sft)


def local_closure(generator: Presentation, x: Presentation, window: int) -> LocalEquivalence:
    """Smallest window-``window`` local equivalence on x containing the
    generator relation."""
    words = x.words(window)
    pairs = []
    for t in generator.words(window):
        u, w = _unzip_pair_word(t)
        pairs.append((u, w))
        pairs.append((w, u))
    classes = _equivalence_closure(words, pairs)
    rel = relation_from_classes(x, window, classes)
    return LocalEquivalence(window, classes, rel)


def relation_checks(r: SubshiftRelation, period_bound: int = 4) -> dict:
    """Reflexivity, symmetry, and bounded transitivity of a relation."""
    x = r.left
    diag = diagonal_relation(x)
    reflexive = diag.included_in(r.presentation)
    symmetric = an.swap_relation(r).presentation.language_equal(r.presentation)
    transitive = True
    for p in range(1, period_bound + 1):
        by_left: dict[Word, list[Word]] = {}
        for t in r.presentation.words(p):
            if not r.presentation.contains_periodic(t):
                continue
            u, w = _unzip_pair_word(t)
            by_left.setdefault(u, []).append(w)
        for u, mids in by_left.items():
            for m in mids:
                for w in by_left.get(m, ()):
                    if not r.presentation.contains_periodic(_zip_pair_word(u, w)):
                        transitive = False
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
        pairs = []
        for t in r.presentation.words(n):
            u, w = _unzip_pair_word(t)
            pairs.append((u, w))
        classes = _equivalence_closure(x.words(n), pairs)
        induced = relation_from_classes(x, n, classes)
        if induced.language_equal(r.presentation):
            return v.yes(certificate={"window": n, "classes": classes})
    square = product_presentation(x, x)
    sub = an.is_subsft_of(r.presentation, square)
    if sub.no:
        return v.no(witness=sub.witness,
                    note="relation is not a subSFT of the square; never local")
    return v.no(bound_used=max_window, note=f"not local at any window <= {max_window}")


# ---------------------------------------------------------------------------
# Coequalizers of (identity, f)


def _trivial_target_map(x: Presentation) -> BlockMap:
    t = trivial_shift("0")
    return constant_map(x, t, "0")


def _detect_shift_power(f: BlockMap) -> int | None:
    for k in range(-f.radius, f.radius + 1):
        if k == 0:
            continue
        if maps_equal(f, shift_power(f.source, k)):
            return k
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
    if mixing:
        spread = dy.spreading_state(f)
        if spread is not None:
            return exists(trivial_shift("0"), _trivial_target_map(x),
                          reason=f"spreading state {spread!r}")
        nil = dy.nilpotency_index(f, cap=5)
        if nil is not None:
            return exists(trivial_shift("0"), _trivial_target_map(x),
                          reason=f"nilpotent at power {nil}")
        k = _detect_shift_power(f)
        if k is not None:
            return exists(
                trivial_shift("0"),
                _trivial_target_map(x),
                reason=f"shift power {k} on a mixing shift is chain transitive",
            )

    ep = dy.eventual_periodicity(f, cap=ep_cap)
    if ep.status == "found" and mixing and an.is_sft(x).yes:
        vep = dy.is_visibly_eventually_periodic(f, ep)
        if vep.no:
            return not_exists(
                "eventually periodic but points have different eventual periods",
                bound={"k": ep.preperiod, "p": ep.period, "witness": vep.witness},
            )
        try:
            target, q = dy.orbit_subshift(f, ep.preperiod, ep.period)
        except BudgetExceeded:
            return undecided_limit("orbit quotient construction exceeded its window cap")
        if object_problems(cat, target):
            return undecided_limit(
                f"orbit quotient is not an object of {cat}; no verdict in this category"
            )
        return exists(target, q, reason=f"visibly eventually periodic (k={ep.preperiod}, p={ep.period})")

    rev = dy.is_reversible(f)
    if rev.yes:
        k = _detect_shift_power(f)
        if k is not None and mixing:
            return exists(
                trivial_shift("0"),
                _trivial_target_map(x),
                reason=f"shift power {k} on a mixing shift is chain transitive",
            )
        level = dy.chain_transitive_upto(f, level_cap)
        if level < level_cap:
            note = f"reversible, not chain transitive at level {level + 1}; trivial map is not the coequalizer"
        else:
            note = (
                f"reversible and chain transitive up to level {level_cap};"
                " leaning towards the trivial coequalizer but uncertified"
            )
        closure_result = _closure_search(f, cat, window_cap)
        if closure_result is not None:
            return closure_result
        return undecided_limit(note, bound={"level_cap": level_cap})

    closure_result = _closure_search(f, cat, window_cap)
    if closure_result is not None:
        return closure_result
    return undecided_limit(
        "no exact branch applied and the closure search did not stabilize",
        bound={"window_cap": window_cap, "ep_cap": ep_cap},
    )


def _closure_search(f: BlockMap, cat: CategoryTag, window_cap: int) -> LimitResult | None:
    x = f.source
    gen = an.graph_relation(f).presentation
    prev: LocalEquivalence | None = None
    for n in range(1, window_cap + 1):
        try:
            loc = local_closure(gen, x, n)
        except BudgetExceeded:
            return None
        if prev is not None and prev.relation.language_equal(loc.relation):
            q = _quotient_map(x, prev)
            if q is None:
                prev = loc
                continue
            ker = q.kernel
            if not ker.language_equal(prev.relation):
                prev = loc
                continue
            if not maps_equal(compose(q, f), q):
                return None
            if object_problems(cat, q.target):
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


def _quotient_map(x: Presentation, loc: LocalEquivalence) -> BlockMap | None:
    """The symbol map onto word classes inducing the local relation."""
    n = loc.window
    rho = n // 2
    width = 2 * rho + 1
    offset = (width - n) // 2
    class_of: dict[Word, int] = {}
    for i, cls in enumerate(loc.classes):
        for w in cls:
            class_of[w] = i
    rule: dict[Word, str] = {}
    for w in x.words(width):
        mid = w[offset : offset + n]
        if mid not in class_of:
            return None
        rule[w] = f"c{class_of[mid]}"
    target = rule_image(x, rho, rule, sorted(set(rule.values())))
    return make_block_map(x, target, rho, rule, validate_image=False)


# ---------------------------------------------------------------------------
# Kernels and cokernels in the pointed categories


def kernel_p(f: BlockMap, cat: CategoryTag) -> LimitResult:
    if not cat.pointed:
        raise ValidationError("kernels need a pointed category")
    from . import limits as li
    from .core import zero_map

    check_morphism(cat, f)
    return li.equalizer(f, zero_map(f.source, f.target), cat)


def cokernel_p(f: BlockMap, cat: CategoryTag) -> LimitResult:
    if not cat.pointed:
        raise ValidationError("cokernels need a pointed category")
    from .core import zero_map

    check_morphism(cat, f)
    y = f.target
    if maps_equal(f, zero_map(f.source, y)):
        return exists(y, identity_map(y), reason="cokernel of the zero map is the identity")
    surj = an.surjectivity(f)
    if surj.yes:
        t = trivial_shift(y.point if y.point is not None else "0")
        return exists(t, constant_map(y, t, t.point), reason="cokernel of a surjection is the zero map")
    h = _cokernel_diagnostic(f, surj.witness["word"])
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