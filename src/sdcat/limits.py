"""Finite limits and coproducts in the twelve symbolic categories.

Category tags pair a restriction (K: none, T: transitive, M: mixing,
P: mixing pointed) with a level (1: endomorphisms of SFTs, 2: SFTs,
3: sofic shifts).  Verdict rules differ by category; legality of the
participating objects and morphisms is checked up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analysis as an
from .core import (
    BlockMap,
    Presentation,
    apply_map,
    PeriodicPoint,
    compose,
    disjoint_union,
    empty_shift,
    identity_map,
    make_block_map,
    maps_equal,
    product_presentation,
    trivial_shift,
)
from .errors import BudgetExceeded, DomainMismatch, ValidationError

RESTRICTIONS = ("K", "T", "M", "P")
LEVELS = (1, 2, 3)


@dataclass(frozen=True)
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


def object_problems(cat: CategoryTag, x: Presentation) -> list[str]:
    """Hard legality violations of ``x`` as an object of ``cat``."""
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
    return problems


def object_warnings(cat: CategoryTag, x: Presentation) -> list[str]:
    """Soft violations (reported, not enforced)."""
    if cat.level == 1 and an.is_countable(x):
        return ["level-1 objects are nominally of positive entropy"]
    return []


def check_object(cat: CategoryTag, x: Presentation) -> None:
    problems = object_problems(cat, x)
    if problems:
        raise ValidationError(f"not an object of {cat}: " + "; ".join(problems))


def morphism_problems(cat: CategoryTag, f: BlockMap) -> list[str]:
    problems = object_problems(cat, f.source) + object_problems(cat, f.target)
    if cat.level == 1 and not f.source.language_equal(f.target):
        problems.append("level-1 morphisms must be endomorphisms")
    if cat.pointed:
        px, py = f.source.point, f.target.point
        if px is not None and py is not None:
            img = apply_map(f, PeriodicPoint((px,)))
            if not img.same_point(PeriodicPoint((py,))):
                problems.append("map does not preserve the designated points")
    return problems


def check_morphism(cat: CategoryTag, f: BlockMap) -> None:
    problems = morphism_problems(cat, f)
    if problems:
        raise ValidationError(f"not a morphism of {cat}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Limit results


@dataclass(frozen=True)
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
    rule = {(a,): a for a in sub.alphabet if sub.contains_word((a,))}
    return make_block_map(sub, sup, 0, rule, validate_image=False)


def corestrict(f: BlockMap, target: Presentation | None = None) -> BlockMap:
    """The same rule viewed into (by default) the image presentation."""
    tgt = target if target is not None else an.image(f)
    if f.target.point is not None and tgt.contains_periodic((f.target.point,)):
        tgt = tgt.with_point(f.target.point)
    return make_block_map(f.source, tgt, f.radius, dict(f.rule_dict))


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
    i1 = make_block_map(x, u, 0, {(a,): lmap[a] for a in x.alphabet if x.contains_word((a,))})
    i2 = make_block_map(y, u, 0, {(b,): rmap[b] for b in y.alphabet if y.contains_word((b,))})
    return exists(u, i1, i2)


def _maximal_mixing_candidates(e: Presentation):
    """Inclusion-maximal mixing SCC subshifts, plus an exhaustiveness flag:
    when True, every mixing subshift is contained in one of them."""
    cands = an.inclusion_maximal(
        s for _, s in an.cycle_components(e) if an.is_mixing(s) and not s.is_empty()
    )
    exhaustive = True
    for c in an.constituents(e):
        if any(c.included_in(k) for k in cands):
            continue
        if not an.periods(c).is_cofinite():
            continue
        exhaustive = False
    return cands, exhaustive


def equalizer(f: BlockMap, g: BlockMap, cat: CategoryTag) -> LimitResult:
    check_morphism(cat, f)
    check_morphism(cat, g)
    if not f.source.language_equal(g.source) or not f.target.language_equal(g.target):
        raise DomainMismatch("equalizer needs a parallel pair")
    x = f.source
    e = an.equalizer_set(f, g)
    if cat.restriction == "K":
        return exists(e, inclusion_map(e, x))
    if cat.restriction == "T":
        if e.is_empty():
            return not_exists("equalizer set is empty and T has no empty object")
        if cat.level == 2:
            if an.is_transitive(e):
                return exists(e, inclusion_map(e, x))
            return not_exists("equalizer set is not transitive")
        consts = an.constituents(e)
        if len(consts) == 1:
            return exists(consts[0], inclusion_map(consts[0], x))
        return not_exists(f"equalizer set has {len(consts)} constituents")
    # M and P
    if cat.level == 2:
        consts = an.constituents(e)
        mixing = [c for c in consts if an.is_mixing(c)]
        if len(mixing) == 0:
            emp = empty_shift(x.alphabet)
            return exists(emp, make_block_map(emp, x, 0, {}, validate_image=False),
                          reason="no mixing constituent; empty map")
        if len(mixing) == 1:
            obj = mixing[0]
            if cat.pointed:
                obj = obj.with_point(x.point)
            return exists(obj, inclusion_map(obj, x))
        return not_exists(f"equalizer set has {len(mixing)} mixing constituents")
    cands, exhaustive = _maximal_mixing_candidates(e)
    if len(cands) >= 2:
        # two mixing parts refute uniqueness only when no constituent could
        # hold both inside one larger mixing subshift
        consts = an.constituents(e)
        hulls = [
            frozenset(i for i, big in enumerate(consts) if c.included_in(big))
            for c in cands
        ]
        separated = any(
            not (hulls[i] & hulls[j])
            for i in range(len(cands))
            for j in range(i + 1, len(cands))
        )
        if separated:
            return not_exists("equalizer set has several maximal mixing sofic subshifts")
        return undecided_limit(
            "several mixing parts share a constituent; uniqueness of the"
            " maximal mixing subshift is unresolved"
        )
    if not exhaustive:
        return undecided_limit(
            "maximal mixing subshift enumeration not visibly exhaustive"
        )
    if len(cands) == 0:
        emp = empty_shift(x.alphabet)
        return exists(emp, make_block_map(emp, x, 0, {}, validate_image=False),
                      reason="no mixing subshift; empty map")
    obj = cands[0]
    if cat.pointed:
        obj = obj.with_point(x.point)
    return exists(obj, inclusion_map(obj, x))


def pullback(f: BlockMap, g: BlockMap) -> LimitResult:
    """Fiber product of maps with a common target, with its projections."""
    rel = an.fiber_product(f, g)
    return exists(rel.presentation, *an.relation_projections(rel))


def kernel_pair(f: BlockMap) -> LimitResult:
    return pullback(f, f)


def connecting_map(f: BlockMap, g: BlockMap, radius_cap: int = 8) -> BlockMap | None:
    """The unique u with u . f = g on images, when Ker f is contained in
    Ker g; None when the kernel inclusion fails."""
    if not f.source.language_equal(g.source):
        raise DomainMismatch("connecting map needs a shared source")
    kf = f.kernel
    kg = g.kernel
    if not kf.included_in(kg):
        return None
    img_f = an.image(f)
    img_g = an.image(g)
    f_cor = corestrict(f, img_f)
    g_cor = corestrict(g, img_g)
    if f.source.is_empty():
        return make_block_map(img_f, img_g, 0, {}, validate_image=False)
    for rho in range(0, radius_cap + 1):
        big = max(rho + f.radius, g.radius)
        gr = g.padded_rule(big)
        margin = big - f.radius - rho
        values: dict = {}
        ok = True
        for xi in f.source.words(2 * big + 1):
            imgw = tuple(
                f.local(xi[i : i + f.width()]) for i in range(2 * (big - f.radius) + 1)
            )
            window = imgw[margin : margin + 2 * rho + 1]
            val = gr[xi]
            if window in values and values[window] != val:
                ok = False
                break
            values[window] = val
        if not ok:
            continue
        rule = {w: values[w] for w in img_f.words(2 * rho + 1) if w in values}
        if set(rule) != set(img_f.words(2 * rho + 1)):
            continue
        try:
            u = make_block_map(img_f, img_g, rho, rule)
        except ValidationError:
            continue
        if maps_equal(compose(u, f_cor), g_cor):
            return u
    raise BudgetExceeded("connecting map radius cap exceeded")


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
        return LimitResult(
            "not-exists",
            reason="image is properly sofic; no minimal SFT over-approximation",
            legs=tuple(),
            bound_used={"witness": sft.witness, "chain_sizes": [c.dfa.n for c in chain]},
        )
    return undecided_limit("SFT-ness of the image undecided", bound=sft.bound_used)


def _decreasing_sft_chain(y: Presentation, img: Presentation, count: int):
    """Strictly decreasing SFT approximations of the image inside y."""
    chain = []
    m = 1
    guard = 0
    while len(chain) < count and guard < 40:
        guard += 1
        try:
            approx = an.intersection_presentation(y, an.sft_approximation(img, m))
        except BudgetExceeded:
            break
        if not chain or not chain[-1].included_in(approx):
            if not chain or not approx.language_equal(chain[-1]):
                chain.append(approx)
        else:
            if not approx.language_equal(chain[-1]):
                chain.append(approx)
        m += 1
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
    from .core import pair_symbol

    if not h1.source.language_equal(h2.source):
        raise DomainMismatch("pairing needs a shared source")
    r = max(h1.radius, h2.radius)
    r1 = h1.padded_rule(r)
    r2 = h2.padded_rule(r)
    rule = {w: pair_symbol(r1[w], r2[w]) for w in h1.source.words(2 * r + 1)}
    return make_block_map(h1.source, target, r, rule)


def mediate_product(limit: LimitResult, h1: BlockMap, h2: BlockMap) -> BlockMap:
    return pairing(h1, h2, limit.object)


def mediate_equalizer(limit: LimitResult, h: BlockMap) -> BlockMap:
    return corestrict(h, limit.object)
