"""Finite limits and coproducts in the twelve symbolic categories.

Category tags pair a restriction (K: none, T: transitive, M: mixing,
P: mixing pointed) with a level (1: endomorphisms of SFTs, 2: SFTs,
3: sofic shifts).  Verdict rules differ by category; legality of the
participating objects and morphisms is checked up front.  Equalizers
are decided by restriction, not by level: K keeps the equalizer set, T
its one constituent, M and P its one maximal mixing part
(``_maximal_parts``); on an SFT this is the level-2 rule, by the three
facts about SFTs that ``equalizer`` states.
"""

from __future__ import annotations

import itertools

from . import analysis as an
from . import automata as au
from . import verdicts as v
from .core import (
    BlockMap,
    Presentation,
    disjoint_union,
    empty_shift,
    identity_map,
    image_word,
    make_block_map,
    product_presentation,
    trivial_shift,
    _block_map,
    _per_object,
)
from .errors import BudgetExceeded, DomainMismatch, ValidationError, budget, check_budget
from .records import record

RESTRICTIONS = ("K", "T", "M", "P")
LEVELS = (1, 2, 3)
CONNECTING_RADIUS_CAP = 8


@record
class CategoryTag:
    restriction: str
    level: int

    def __post_init__(self):
        if self.restriction not in RESTRICTIONS or self.level not in LEVELS:
            raise ValidationError(f"unknown category {self.restriction}{self.level}")

    @classmethod
    def parse(cls, text: str) -> "CategoryTag":
        text = text.strip().upper()
        if len(text) != 2 or not text[1].isdigit():
            raise ValidationError(f"bad category tag {text!r}")
        return cls(text[0], int(text[1]))

    def __str__(self):
        return f"{self.restriction}{self.level}"

    @property
    def pointed(self) -> bool:
        return self.restriction == "P"


@_per_object
def object_problems(x: Presentation, cat: CategoryTag) -> tuple[str, ...]:
    """Hard legality violations of ``x`` as an object of ``cat``, kept."""
    problems = []
    if cat.level in (1, 2) and not an.is_sft(x).yes:
        problems.append("object is not an SFT")
    if cat.restriction == "T":
        if x.is_empty():
            problems.append("empty shift is not treated as a T-object")
        elif not an.is_transitive(x):
            problems.append("object is not transitive")
    if cat.restriction in ("M", "P") and not an.is_mixing(x):
        problems.append("object is not mixing")
    if cat.restriction == "P" and x.point is None:
        problems.append("object has no designated uniform point")
    return tuple(problems)


def check_object(cat: CategoryTag, x: Presentation) -> None:
    problems = object_problems(x, cat)
    if problems:
        raise ValidationError(f"not an object of {cat}: " + "; ".join(problems))


@_per_object
def morphism_problems(f: BlockMap, cat: CategoryTag) -> tuple[str, ...]:
    """Hard legality violations of ``f`` as a morphism of ``cat``, kept."""
    problems = [*object_problems(f.source, cat), *object_problems(f.target, cat)]
    if cat.level == 1 and not f.source.language_equal(f.target):
        problems.append("level-1 morphisms must be endomorphisms")
    if cat.pointed and not keeps_points(f):
        problems.append("map does not preserve the designated points")
    return tuple(problems)


def keeps_points(f: BlockMap) -> bool:
    """Whether ``f`` sends the designated point of its source to that of its
    target; true when either has none."""
    px, py = f.source.point, f.target.point
    if px is None or py is None:
        return True
    return image_word(f, (px,)) == (py,)


def check_morphism(cat: CategoryTag, f: BlockMap) -> None:
    problems = morphism_problems(f, cat)
    if problems:
        raise ValidationError(f"not a morphism of {cat}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Limit results


@record
class LimitResult:
    status: str  # "exists" | "not-exists" | "undecided"
    object: Presentation | None = None
    legs: tuple[BlockMap, ...] = ()
    reason: str | None = None
    bound_used: object = None

    @property
    def exists(self) -> bool:
        return self.status == "exists"

    def exit_code(self) -> int:
        return {"exists": 0, "not-exists": 1, "undecided": 2}[self.status]


def exists(obj, *legs, reason=None) -> LimitResult:
    return LimitResult("exists", obj, tuple(legs), reason)


def not_exists(reason, bound=None) -> LimitResult:
    return LimitResult("not-exists", reason=reason, bound_used=bound)


def undecided_limit(reason, bound=None) -> LimitResult:
    return LimitResult("undecided", reason=reason, bound_used=bound)


def inclusion_map(sub: Presentation, sup: Presentation) -> BlockMap:
    if not sub.included_in(sup):
        raise ValidationError("inclusion: not a subshift")
    rule = {(a,): a for a in sub.live_symbols}
    return make_block_map(sub, sup, 0, rule, validate_image=False)


def corestrict(f: BlockMap, target: Presentation | None = None) -> BlockMap:
    """The same rule viewed into (by default) the image presentation."""
    tgt = target if target is not None else an.image(f)
    if f.target.point is not None and tgt.contains_periodic((f.target.point,)):
        tgt = tgt.with_point(f.target.point)
    return _block_map(f.source, tgt, f.radius, f.values)


def terminal(cat: CategoryTag) -> LimitResult:
    if cat.level == 1:
        return not_exists("level-1 categories have no terminal object")
    t = trivial_shift("0")
    return exists(t)


def initial(cat: CategoryTag) -> LimitResult:
    if cat.level == 1:
        return not_exists("level-1 categories have no initial object")
    if cat.pointed:
        return exists(trivial_shift("0"), reason="zero object")
    reason = None
    if cat.restriction == "T":
        reason = "empty shift returned although T-objects are nominally nonempty"
    return exists(empty_shift(["0"]), reason=reason)


def product(x: Presentation, y: Presentation) -> LimitResult:
    """Coordinatewise product with projection symbol maps."""
    p = product_presentation(x, y)
    return exists(p, *an.relation_projections(an.SubshiftRelation(p, x, y)))


def coproduct(x: Presentation, y: Presentation, cat: CategoryTag) -> LimitResult:
    if cat.level == 1:
        return not_exists("level-1 categories have no coproducts across objects")
    if x.is_empty() or y.is_empty():
        z = y if x.is_empty() else x
        other = x if x.is_empty() else y
        check_object(cat, z)
        inc_live = identity_map(z)
        inc_dead = make_block_map(other, z, 0, {}, validate_image=False)
        legs = (inc_dead, inc_live) if x.is_empty() else (inc_live, inc_dead)
        return exists(z, *legs)
    check_object(cat, x)
    check_object(cat, y)
    if cat.restriction in ("T", "M", "P"):
        return not_exists(
            f"disjoint union of nonempty shifts is never transitive, so it is not an object of {cat}"
        )
    u, lmap, rmap = disjoint_union(x, y)
    i1 = make_block_map(x, u, 0, {(a,): lmap[a] for a in x.live_symbols})
    i2 = make_block_map(y, u, 0, {(b,): rmap[b] for b in y.live_symbols})
    return exists(u, i1, i2)


def _maximal_parts(e: Presentation, restriction: str):
    """The inclusion-maximal transitive (T) or mixing (M, P) SCC subshifts
    of ``e``, and whether every such subshift of ``e`` lies in one of them:
    always for T, whose parts are the constituents; for M and P, unless a
    constituent outside every part has a cofinite period set."""
    consts = an.constituents(e)
    if restriction == "T":
        return consts, True
    parts = an.inclusion_maximal(
        s for _, s in an.cycle_components(e) if an.is_mixing(s) and not s.is_empty())
    exhaustive = all(any(c.included_in(k) for k in parts) or not an.periods(c).is_cofinite()
                     for c in consts)
    return parts, exhaustive


def equalizer(f: BlockMap, g: BlockMap, cat: CategoryTag) -> LimitResult:
    """The equalizer of a parallel pair, by restriction: K keeps the
    equalizer set e, T needs e nonempty with one constituent, and M and P
    need an exhaustive list of at most one maximal mixing part (none gives
    the empty map); two parts refute only when no constituent holds both.

    No rule reads the level.  At level 2, e is the SFT source cut by window
    constraints, so an SFT, and there (Lind & Marcus, §4.4 and §4.5) e is
    transitive exactly when it has one constituent, since a point in none
    runs between two SCCs of an M-block vertex presentation, whose
    subshifts use disjoint M-blocks; its maximal mixing parts are its
    mixing constituents, exhaustively, since a constituent of period p >= 2
    has only periodic points whose period p divides; and distinct
    constituents have disjoint hulls, so no answer there is UNDECIDED."""
    check_morphism(cat, f)
    check_morphism(cat, g)
    if not f.source.language_equal(g.source) or not f.target.language_equal(g.target):
        raise DomainMismatch("equalizer needs a parallel pair")
    x = f.source
    e = an.equalizer_set(f, g)
    if cat.restriction == "K":
        return exists(e, inclusion_map(e, x))
    parts, exhaustive = _maximal_parts(e, cat.restriction)
    if cat.restriction == "T":
        if e.is_empty():
            return not_exists("equalizer set is empty and T has no empty object")
        if len(parts) != 1:
            return not_exists(f"equalizer set has {len(parts)} constituents")
    elif len(parts) >= 2:
        consts = an.constituents(e)
        hulls = [
            frozenset(i for i, big in enumerate(consts) if c.included_in(big))
            for c in parts
        ]
        if any(not (h & k) for h, k in itertools.combinations(hulls, 2)):
            return not_exists("equalizer set has several maximal mixing sofic subshifts")
        return undecided_limit(
            "several mixing parts share a constituent; uniqueness of the"
            " maximal mixing subshift is unresolved"
        )
    elif not exhaustive:
        return undecided_limit(
            "maximal mixing subshift enumeration not visibly exhaustive"
        )
    elif not parts:
        emp = empty_shift(x.alphabet)
        return exists(emp, make_block_map(emp, x, 0, {}, validate_image=False),
                      reason="no mixing subshift; empty map")
    obj = parts[0].with_point(x.point) if cat.pointed else parts[0]
    return exists(obj, inclusion_map(obj, x))


def pullback(f: BlockMap, g: BlockMap) -> LimitResult:
    """Fiber product of maps with a common target, with its projections."""
    rel = an.fiber_product(f, g)
    return exists(rel.presentation, *an.relation_projections(rel))


def kernel_pair(f: BlockMap) -> LimitResult:
    """The pullback of ``f`` along itself, read from its kept kernel."""
    rel = an.kernel_set(f)
    return exists(rel.presentation, *an.relation_projections(rel))


def connecting_map(f: BlockMap, g: BlockMap) -> BlockMap | None:
    """The unique u with u . f = g on images, when Ker f is contained in
    Ker g; None when the kernel inclusion fails.

    u is read off :func:`forced_values` at the first radius where they are
    consistent.  Their windows are exactly those of the image of ``f``,
    and u . f = g holds there by construction, so u maps the image of
    ``f`` onto that of ``g``."""
    if not f.source.language_equal(g.source):
        raise DomainMismatch("connecting map needs a shared source")
    if not f.kernel.included_in(g.kernel):
        return None
    img_f = an.image(f)
    img_g = an.image(g)
    if f.source.is_empty():
        return make_block_map(img_f, img_g, 0, {}, validate_image=False)
    return _read_off(f, g, img_f, img_g, "connecting map")


def bijectivity(f: BlockMap) -> v.Verdict:
    """Injective and onto: NO with the injectivity pair or the missed word;
    YES with the kept :func:`inverse` (Lind & Marcus, Theorem 1.5.14), or,
    past the radius cap or the budget, quoting the bound that stopped it.
    Not kept: it reads kept facts, and its past-cap YES depends on the budget."""
    fam = an.injectivity_family(f)
    if not fam.injective:
        return v.no(witness={"pair": fam.pair}, note="not injective")
    surj = an.surjectivity(f)
    if surj.no:
        return v.no(witness=surj.witness, note="not surjective")
    try:
        return v.yes(certificate=inverse(f))
    except BudgetExceeded as exc:
        return v.yes(note=f"bijective; inverse not read off: {exc}",
                     bound_used={"radius_cap": CONNECTING_RADIUS_CAP, "budget": budget()})


@_per_object
def inverse(f: BlockMap) -> BlockMap:
    """The inverse of a bijective ``f``, a map from ``f.target`` to
    ``f.source``, kept per map: the section and the retraction of its
    split verdicts, with no search.  Only :func:`bijectivity` asks for it.

    It is read off :func:`forced_values` against the identity at the first
    radius where they are consistent, so at its smallest radius.  Their
    windows are those of the image, which is the whole target, so neither
    the kernel inclusion nor the image is built; ``f`` must be injective
    and surjective.  Raises ``BudgetExceeded`` past
    ``CONNECTING_RADIUS_CAP`` or the budget."""
    return _read_off(f, identity_map(f.source), f.target, f.source, "inverse")


def _read_off(f: BlockMap, g: BlockMap, source: Presentation, target: Presentation,
              what: str) -> BlockMap:
    """The map ``source -> target`` with the :func:`forced_values` of
    u . f = g at the first radius where they are consistent; raises
    ``BudgetExceeded`` naming ``what`` past ``CONNECTING_RADIUS_CAP``."""
    for rho in range(0, CONNECTING_RADIUS_CAP + 1):
        values = forced_values(f, g, rho)
        if values is not None:
            return make_block_map(source, target, rho, values, validate_image=False)
    raise BudgetExceeded(f"{what} radius cap exceeded")


def forced_values(f: BlockMap, g: BlockMap, rho: int) -> dict | None:
    """The value that u . f = g forces on each width-(2 rho + 1) window of
    the image of ``f``, for a map u of radius ``rho``; None when two source
    windows with the same image window need different values.

    The source words of width 2 big + 1 come from one ``automata.walk``
    on the source automaton, in words order, and each word's image windows
    are read off that word, so the walk stops at the first conflict.  The
    words count against the budget as "word enumeration"."""
    big = max(rho + f.radius, g.radius)
    n, fw, gw, pad = 2 * big + 1, f.width(), g.width(), big - g.radius
    # the slices of a word that are the source windows under u's window
    cuts = [slice(k, k + fw) for k in range(big - f.radius - rho, big - f.radius + rho + 1)]
    local, glocal, dfa = f.rule_dict, g.rule_dict, f.source.dfa
    check_budget(au.count_words(dfa, n, budget()), "word enumeration")
    values: dict = {}
    for word, q in au.walk(dfa.trans, dfa.init, n):
        if q in dfa.accepting:
            val = glocal[word[pad : pad + gw]]
            if values.setdefault(tuple([local[word[c]] for c in cuts]), val) != val:
                return None
    return values


def image_factorization(f: BlockMap, cat: CategoryTag):
    """Image factorization f = m . e when it exists in ``cat``.

    Returns a LimitResult whose legs are (e, m) on success.
    """
    check_morphism(cat, f)
    img = an.image(f)
    if cat.pointed and f.target.point is not None:
        img = img.with_point(f.target.point)
    if cat.level == 3:
        e = corestrict(f, img)
        m = inclusion_map(img, f.target)
        return exists(img, e, m)
    if cat.level == 1:
        if an.surjectivity(f).yes:
            return exists(img, corestrict(f, img), identity_map(f.target))
        return not_exists("level-1 factorization needs a surjective endomorphism")
    sft = an.is_sft(img)
    if sft.yes:
        e = corestrict(f, img)
        m = inclusion_map(img, f.target)
        return exists(img, e, m)
    if sft.no:
        chain = _decreasing_sft_chain(f.target, img, 3)
        return not_exists(
            "image is properly sofic; no minimal SFT over-approximation",
            bound={"witness": sft.witness, "chain_sizes": [c.dfa.n for c in chain]},
        )
    return undecided_limit("SFT-ness of the image undecided", bound=sft.bound_used)


def _decreasing_sft_chain(y: Presentation, img: Presentation, count: int):
    """Strictly decreasing SFT approximations of the image inside y."""
    chain = []
    for m in range(1, 41):
        if len(chain) == count:
            break
        try:
            approx = an.intersection_presentation(y, an.sft_approximation(img, m))
        except BudgetExceeded:
            break
        if not chain or not approx.language_equal(chain[-1]):
            chain.append(approx)
    return chain


def subobject_union(i1: BlockMap, i2: BlockMap) -> BlockMap:
    """Least upper bound of two subobjects, as an inclusion into the
    common target."""
    if not i1.target.language_equal(i2.target):
        raise DomainMismatch("subobject union needs a common target")
    if not an.injectivity_family(i1).injective or not an.injectivity_family(i2).injective:
        raise ValidationError("subobject union needs monic (injective) inputs")
    u = an.union_presentation(an.image(i1), an.image(i2))
    return inclusion_map(u, i1.target)


# ---------------------------------------------------------------------------
# Mediating morphisms (used by the universal-property audits)


def pairing(h1: BlockMap, h2: BlockMap, target: Presentation) -> BlockMap:
    """The map z -> (h1(z), h2(z)) into a product-alphabet presentation."""
    if not h1.source.language_equal(h2.source):
        raise DomainMismatch("pairing needs a shared source")
    r = max(h1.radius, h2.radius)
    r1 = h1.padded_rule(r)
    r2 = h2.padded_rule(r)
    rule = {w: (r1[w], r2[w]) for w in h1.source.words(2 * r + 1)}
    return make_block_map(h1.source, target, r, rule)


def mediate_product(limit: LimitResult, h1: BlockMap, h2: BlockMap) -> BlockMap:
    return pairing(h1, h2, limit.object)


def mediate_equalizer(limit: LimitResult, h: BlockMap) -> BlockMap:
    return corestrict(h, limit.object)
