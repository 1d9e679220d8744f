"""The morphism classifier: epic, monic, split epic, split monic,
regular epic, regular monic, per category.

Split epicness follows the two-sided strategy: the strong periodic point
condition is checked for p = 1..p_cap (a NO at any p is final), and a
bounded search looks for an actual section (a YES always carries one).
Blank cells of the classification table surface as UNDECIDED.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import analysis as an
from . import automata as au
from . import limits as li
from . import verdicts as v
from .automata import Nfa, Word
from .core import (
    BlockMap,
    PeriodicPoint,
    Presentation,
    apply_map,
    block_symbol,
    compose,
    diagonal_relation,
    identity_map,
    make_block_map,
    maps_equal,
    recode_to_symbol_map,
    reduce_radius,
)
from .errors import BudgetExceeded, InternalError, ValidationError, check_budget
from .limits import CategoryTag

DEFAULT_P_CAP = 6
DEFAULT_RADIUS_CAP = 3
SEARCH_LIMIT = 4000


# ---------------------------------------------------------------------------
# Epicness


def is_epic(f: BlockMap, cat: CategoryTag) -> v.Verdict:
    """Epic = surjective, in all twelve categories."""
    li.check_morphism(cat, f)
    return an.surjectivity(f)


# ---------------------------------------------------------------------------
# Monicness


def is_monic(f: BlockMap, cat: CategoryTag) -> v.Verdict:
    li.check_morphism(cat, f)
    fam = an.injectivity_family(f)
    r, lvl = cat.restriction, cat.level
    if (r, lvl) in (("K", 2), ("K", 3), ("T", 2)):
        return v.yes() if fam.injective else v.no(note="not injective")
    if (r, lvl) == ("T", 3):
        return v.yes() if fam.injective_on_periodic else v.no(note="not injective on periodic points")
    if r == "P":
        pre = an.is_preinjective(f)
        if pre.yes:
            return v.yes(note="preinjective")
        if lvl in (1, 2):
            return v.no(witness=pre.witness, note="not preinjective")
        return v.undecided(note="not preinjective; no exact P3 criterion")
    if r == "M" and lvl == 2:
        return _monic_m2(f)
    if r == "M" and lvl == 3:
        return _monic_m3(f, fam)
    # level-1 unpointed categories: only the known implications
    if fam.injective:
        return v.yes(note="injective")
    pre = an.is_preinjective(f)
    if pre.no:
        return v.no(witness=pre.witness, note="not preinjective")
    if r == "M" and not fam.injective_on_uniform:
        return v.no(note="not injective on uniform points")
    return v.undecided(note="open in the classification table")


def _monic_m2(f: BlockMap) -> v.Verdict:
    ker = f.kernel
    diag = diagonal_relation(f.source)
    consts = an.constituents(ker)
    mixing_off = [c for c in consts if an.is_mixing(c) and not c.language_equal(diag)]
    if mixing_off:
        return v.no(note="kernel has a mixing constituent besides the diagonal",
                    witness={"constituents": len(consts)})
    return v.yes(certificate={"constituents": len(consts)})


def _monic_m3(f: BlockMap, fam) -> v.Verdict:
    if fam.injective:
        return v.yes(note="injective")
    if fam.injective_on_periodic:
        return v.yes(note="injective on periodic points")
    ker = f.kernel
    diag = diagonal_relation(f.source)
    for _, s in an.cycle_components(ker):
        if not s.included_in(diag) and an.is_mixing(s) and not s.is_empty():
            return v.no(note="kernel contains a mixing sofic subshift off the diagonal")
    consts = an.constituents(ker)
    safe = True
    for c in consts:
        if c.included_in(diag):
            continue
        if diag.included_in(c) and not c.language_equal(diag):
            safe = False
            break
        if an.is_mixing(c):
            safe = False  # handled above unless inside diag; be conservative
            break
        if an.periods(c).is_cofinite():
            safe = False
            break
    if safe:
        return v.yes(note="all off-diagonal constituents have sparse period sets")
    return v.undecided(note="no witness among the implemented classes")


# ---------------------------------------------------------------------------
# The strong periodic point condition


@dataclass(frozen=True)
class StrongConditionReport:
    p: int
    holds: bool
    assignment: tuple[tuple[Word, Word], ...] = ()
    failures: tuple[dict, ...] = ()
    pointwise: dict | None = None

    def failing_tuple(self):
        if self.pointwise is not None:
            return self.pointwise
        return self.failures[0] if self.failures else None


def _periodic_words_upto(y: Presentation, p: int) -> list[Word]:
    out = []
    for n in range(1, p + 1):
        for w in y.words(n):
            if y.contains_periodic(w):
                out.append(w)
    return out


def _aligned_periodic_preimages(f: BlockMap, u: Word) -> list[Word]:
    """Words a with the a-periodic point mapping onto the u-periodic point,
    phase aligned."""
    out = []
    for a in f.source.words(len(u)):
        if not f.source.contains_periodic(a):
            continue
        if apply_map(f, PeriodicPoint(a)).word == u:
            out.append(a)
    return out


@an._per_object
def _symbol_recoding(f: BlockMap):
    """``(f0, from_blocks, pre)``: ``f`` recoded as the radius-0 map ``f0`` on
    its higher block presentation, and the live block symbols over each
    target symbol."""
    f0, _, from_blocks = recode_to_symbol_map(f)
    xb = f0.source
    pre: dict[str, list[str]] = {}
    for t in xb.alphabet:
        if xb.contains_word((t,)):
            pre.setdefault(f0.local((t,)), []).append(t)
    return f0, from_blocks, pre


class _StrongConditionEngine:
    """Automaton plumbing shared across the (u, v) pair checks."""

    def __init__(self, f: BlockMap):
        self.f = f
        y = self.y = f.target
        f0, _, self.pre_syms = _symbol_recoding(f)
        xb = self.xb = f0.source
        # the two labelled graphs; each (u, a, v, b) check sets only their ends
        self.good_edges = [(q, f0.local((t,)), q2)
                           for q, row in enumerate(xb.live_trans) for t, q2 in row.items()]
        self.allw_edges = [(q, sym, q2)
                           for q, row in enumerate(y.live_trans) for sym, q2 in row.items()]

    def block_word(self, a: Word) -> Word:
        """The higher-block reading of the a-periodic point at phase 0."""
        r = self.f.radius
        p = PeriodicPoint(a)
        if r == 0:
            return a
        return tuple(block_symbol(p.segment(j - r, j + r + 1)) for j in range(len(a)))

    def _read_pre(self, q: int, word: Word) -> set:
        """States reached from ``q`` along preimage paths of ``word``."""
        states = {q}
        for sym in word:
            rows = [self.xb.live_trans[q1] for q1 in states]
            states = {row[t] for row in rows for t in self.pre_syms.get(sym, ()) if t in row}
        return states

    def good_nfa(self, u: Word, a: Word, vv: Word, b: Word) -> Nfa:
        ab = self.block_word(a)
        bb = self.block_word(b)
        ei = frozenset(
            q for q in au.eventual_image(self.xb.word_action(ab)) if q != au.UNDEF
        )
        s0 = au.closure(ei, lambda q: self._read_pre(q, u))
        fwd = au.forever_defined(self.xb.word_action(bb))
        n = self.xb.n_live()
        # acc: the states with a preimage path of vv into acc, grown from fwd
        back: list[list[int]] = [[] for _ in range(n)]
        for q in range(n):
            for p in self._read_pre(q, vv):
                back[p].append(q)
        acc = au.closure(fwd, back.__getitem__)
        return Nfa(self.y.alphabet, max(1, n), self.good_edges, s0, acc)

    def allw_nfa(self, u: Word, vv: Word) -> Nfa:
        y = self.y
        ei = frozenset(q for q in au.eventual_image(y.word_action(u)) if q != au.UNDEF)
        fwd = au.forever_defined(y.word_action(vv))
        return Nfa(y.alphabet, max(1, y.n_live()), self.allw_edges, ei, fwd)


def strong_condition(f: BlockMap, p: int) -> StrongConditionReport:
    """Decide the strong p-periodic point condition exactly.

    A failing report carries tuples (u, v, w, a, b): with preimage tails a
    for u and b for v, the point repeating u, reading w, then repeating v
    has no conforming preimage.
    """
    y = f.target
    words = _periodic_words_upto(y, p)
    if not words:
        return StrongConditionReport(p, True)
    engine = _StrongConditionEngine(f)
    cands: dict[Word, list[Word]] = {}
    failures: list[dict] = []
    for u in words:
        cands[u] = _aligned_periodic_preimages(f, u)
        if not cands[u]:
            failures.append({"u": u, "reason": "no aligned periodic preimage of the same length"})
    if failures:
        return StrongConditionReport(p, False, failures=tuple(failures))

    # each automaton and each difference-product question once per key
    l_dfa = cache(lambda u, vv: au.determinize(engine.allw_nfa(u, vv)))
    g_dfa = cache(lambda u, a, vv, b: au.determinize(engine.good_nfa(u, a, vv, b)))
    # the shortlex-least w for which (u, vv, w) has no (a, b) preimage
    missed = cache(lambda u, a, vv, b: au.separating_word(l_dfa(u, vv), g_dfa(u, a, vv, b)))

    # unary pruning on the diagonal
    for u in words:
        kept = []
        for a in cands[u]:
            w = missed(u, a, u, a)
            if w is None:
                kept.append(a)
            else:
                failures.append({"u": u, "v": u, "w": w, "a": a, "b": a})
        cands[u] = kept
        if not kept:
            return StrongConditionReport(p, False, failures=tuple(failures))

    # pointwise failing tuple: some (u, v, w) bad for every candidate pair
    for u in words:
        for vv in words:
            pairs = (
                [(a, a) for a in cands[u]]
                if u == vv
                else [(a, b) for a in cands[u] for b in cands[vv]]
            )
            w = au.separating_word(l_dfa(u, vv), *[g_dfa(u, a, vv, b) for a, b in pairs])
            if w is not None:
                tuples = tuple(
                    {"u": u, "v": vv, "w": w, "a": a, "b": b} for a, b in pairs
                )
                return StrongConditionReport(
                    p, False, failures=tuples, pointwise={"u": u, "v": vv, "w": w}
                )

    # backtracking over consistent assignments
    order = sorted(words, key=lambda u: (len(cands[u]), u))
    assign: dict[Word, Word] = {}

    def consistent(u, a) -> bool:
        # (u, a) itself passed the unary pruning
        return all(missed(u, a, vv, b) is None and missed(vv, b, u, a) is None
                   for vv, b in assign.items())

    def solve(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for a in cands[u]:
            if consistent(u, a):
                assign[u] = a
                if solve(i + 1):
                    return True
                del assign[u]
        return False

    if solve(0):
        return StrongConditionReport(
            p, True, assignment=tuple(sorted(assign.items()))
        )
    return StrongConditionReport(
        p,
        False,
        failures=tuple(failures)
        + ({"reason": "no globally consistent preimage assignment"},),
    )


# ---------------------------------------------------------------------------
# Section and retraction searches


def _csp_solutions(domains, follows, allowed, limit):
    """DFS over assignments to the variables ``range(len(domains))``,
    smallest domain first.  The values of a pair ``(i, j)`` in ``follows``,
    ``i != j``, must form a pair in ``allowed``; each new value is checked
    against its assigned neighbours only.  Yields at most ``limit``
    complete assignments, as dicts."""
    order = sorted(range(len(domains)), key=lambda i: len(domains[i]))
    depth = {i: k for k, i in enumerate(order)}
    # (earlier successors, earlier predecessors) of the variable at each depth
    outs: list[list[int]] = [[] for _ in order]
    ins: list[list[int]] = [[] for _ in order]
    for i, j in set(follows):
        if depth[j] < depth[i]:
            outs[depth[i]].append(j)
        elif depth[i] < depth[j]:
            ins[depth[j]].append(i)
    assign: dict[int, object] = {}
    produced = 0

    def rec(k: int):
        nonlocal produced
        if produced >= limit:
            return
        if k == len(order):
            produced += 1
            yield dict(assign)
            return
        i = order[k]
        for val in domains[i]:
            if all((val, assign[j]) in allowed for j in outs[k]) and all(
                (assign[j], val) in allowed for j in ins[k]
            ):
                assign[i] = val
                yield from rec(k + 1)
                del assign[i]
                if produced >= limit:
                    return

    yield from rec(0)


def find_section(f: BlockMap, radius_cap: int = DEFAULT_RADIUS_CAP, pointed: bool = False):
    """Search for g with f . g = identity on the target, at block-level
    radii 0..radius_cap.  Returns g or None."""
    y = f.target
    if y.is_empty():
        return make_block_map(y, f.source, 0, {}, validate_image=False)
    f0, from_blocks, pre = _symbol_recoding(f)
    xb = f0.source
    if any(y.contains_word((c,)) and c not in pre for c in y.alphabet):
        return None
    b2 = set(map(tuple, xb.words(2)))
    idy = identity_map(y)
    for rho in range(0, radius_cap + 1):
        windows = y.words(2 * rho + 1)
        check_budget(len(windows), "section search")
        domains = [tuple(pre.get(w[rho], ())) for w in windows]
        if any(not d for d in domains):
            continue
        wpos = {w: i for i, w in enumerate(windows)}
        follows = []
        for w in y.words(2 * rho + 2):
            a, b = w[:-1], w[1:]
            if a in wpos and b in wpos:
                follows.append((wpos[a], wpos[b]))
        for sol in _csp_solutions(domains, follows, b2, SEARCH_LIMIT):
            rule = {windows[i]: t for i, t in sol.items()}
            try:
                gb = make_block_map(y, xb, rho, rule)
            except ValidationError:
                continue
            g = reduce_radius(compose(from_blocks, gb))
            if not maps_equal(compose(f, g), idy):
                continue
            if pointed and y.point is not None and f.source.point is not None:
                img = apply_map(g, PeriodicPoint((y.point,)))
                if not img.same_point(PeriodicPoint((f.source.point,))):
                    continue
            return g
    return None


def find_retraction(f: BlockMap, radius_cap: int = DEFAULT_RADIUS_CAP, pointed: bool = False):
    """Search for h with h . f = identity on the source.

    Values on image windows are forced; the rest is a small constraint
    search with adjacency pruning."""
    x, y = f.source, f.target
    if x.is_empty():
        if y.is_empty():
            return make_block_map(y, x, 0, {}, validate_image=False)
        return None
    idx = identity_map(x)
    b2x = set(map(tuple, x.words(2)))
    xsyms = tuple(a for a in x.alphabet if x.contains_word((a,)))
    for rho in range(0, radius_cap + 1):
        forced: dict[Word, str] = {}
        ok = True
        big = rho + f.radius
        for xi in x.words(2 * big + 1):
            imgw = tuple(f.local(xi[i : i + f.width()]) for i in range(2 * rho + 1))
            c = xi[big]
            if forced.get(imgw, c) != c:
                ok = False
                break
            forced[imgw] = c
        if not ok:
            continue
        windows = y.words(2 * rho + 1)
        check_budget(len(windows), "retraction search")
        free = [w for w in windows if w not in forced]
        follows = [(w[:-1], w[1:]) for w in y.words(2 * rho + 2)]
        nexts: dict[Word, list[Word]] = {}
        prevs: dict[Word, list[Word]] = {}
        for a, b in follows:
            nexts.setdefault(a, []).append(b)
            prevs.setdefault(b, []).append(a)
        domains = []
        for w in free:
            dom = [
                t
                for t in xsyms
                if all((t, forced[n]) in b2x for n in nexts.get(w, ()) if n in forced)
                and all((forced[pr], t) in b2x for pr in prevs.get(w, ()) if pr in forced)
            ]
            domains.append(tuple(dom))
        wpos = {w: i for i, w in enumerate(free)}
        adj = [(wpos[a], wpos[b]) for a, b in follows if a in wpos and b in wpos]
        for sol in _csp_solutions(domains, adj, b2x, SEARCH_LIMIT):
            rule = dict(forced)
            for i, t in sol.items():
                rule[free[i]] = t
            try:
                h = make_block_map(y, x, rho, rule)
            except ValidationError:
                continue
            if not maps_equal(compose(h, f), idx):
                continue
            if pointed and y.point is not None and x.point is not None:
                img = apply_map(h, PeriodicPoint((y.point,)))
                if not img.same_point(PeriodicPoint((x.point,))):
                    continue
            return reduce_radius(h)
    return None


# ---------------------------------------------------------------------------
# Split epic / split monic


def _isomorphism_rule(f: BlockMap, which: str, inverse: str | None = None) -> v.Verdict:
    """At level 1 of T, M and P the split and regular epis and monos are the
    bijections; a YES with an ``inverse`` name carries the inverse map."""
    if not (an.injectivity_family(f).injective and an.surjectivity(f).yes):
        return v.no(note=f"{which} are the isomorphisms")
    if inverse is None:
        return v.yes(note="bijective")
    g = li.connecting_map(f, identity_map(f.source))
    return v.yes(certificate=g, note=f"bijective; inverse is the {inverse}")


def is_split_epic(
    f: BlockMap,
    cat: CategoryTag,
    p_cap: int = DEFAULT_P_CAP,
    radius_cap: int = DEFAULT_RADIUS_CAP,
) -> v.Verdict:
    li.check_morphism(cat, f)
    if cat.level == 1 and cat.restriction in ("T", "M", "P"):
        return _isomorphism_rule(f, "split epis of this category", "section")
    surj = an.surjectivity(f)
    if surj.no:
        return v.no(witness=surj.witness, note="not surjective")
    pointed = cat.pointed
    phases = [
        ("sc", 1), ("sec", 0), ("sec", 1), ("sc", 2), ("sc", 3),
        ("sec", 2), ("sec", 3),
    ]
    phases += [("sc", p) for p in range(4, p_cap + 1)]
    phases += [("sec", r) for r in range(4, radius_cap + 1)]
    sc_pass = 0
    for kind, k in phases:
        if kind == "sc" and k <= p_cap:
            rep = strong_condition(f, k)
            if not rep.holds:
                return v.no(
                    witness={"p": k, "failures": list(rep.failures)},
                    note="strong periodic point condition fails",
                )
            sc_pass = max(sc_pass, k)
        elif kind == "sec" and k <= radius_cap:
            g = find_section(f, radius_cap=k, pointed=pointed)
            if g is not None:
                return v.yes(certificate=g, bound_used={"radius": g.radius})
    note = "no section found"
    if an.is_sft(f.source).yes and sc_pass >= p_cap:
        note = (
            f"strong periodic point condition holds up to p = {p_cap} on an SFT domain"
            " (YES at bound); no explicit section within the radius cap"
        )
    return v.undecided(bound_used={"p_cap": p_cap, "radius_cap": radius_cap}, note=note)


def is_split_monic(
    f: BlockMap,
    cat: CategoryTag,
    radius_cap: int = DEFAULT_RADIUS_CAP,
) -> v.Verdict:
    li.check_morphism(cat, f)
    fam = an.injectivity_family(f)
    if cat.level == 1 and cat.restriction in ("T", "M", "P"):
        return _isomorphism_rule(f, "split monos of this category", "retraction")
    if not fam.injective:
        return v.no(note="not injective")
    if cat.level == 2 and cat.restriction in ("M", "P"):
        peric = an.retraction_peric(f.source, f.target)
        if peric.no:
            return v.no(witness=peric.witness,
                        note="a target period has no matching source period")
        h = find_retraction(f, radius_cap=radius_cap, pointed=cat.pointed)
        return v.yes(
            certificate=h,
            note="injective and peric" + ("" if h else "; retraction exists but exceeds the search radius"),
        )
    h = find_retraction(f, radius_cap=radius_cap, pointed=cat.pointed)
    if h is not None:
        return v.yes(certificate=h, bound_used={"radius": h.radius})
    return v.undecided(bound_used={"radius_cap": radius_cap}, note="no retraction found")


# ---------------------------------------------------------------------------
# Regular epic / regular monic


def is_regular_epic(f: BlockMap, cat: CategoryTag, witness_endo: BlockMap | None = None) -> v.Verdict:
    li.check_morphism(cat, f)
    if (cat.restriction, cat.level) == ("P", 1):
        return _isomorphism_rule(f, "regular epis of P1")
    surj = an.surjectivity(f)
    if cat.restriction == "K" and cat.level in (2, 3):
        if surj.yes:
            return v.yes(note="epic, and every epi of this category is regular")
        return v.no(witness=surj.witness, note="not surjective")
    if surj.no:
        return v.no(witness=surj.witness, note="not surjective, hence not epic")
    if witness_endo is not None:
        from . import colimits as co

        res = co.coequalizer_id(witness_endo, CategoryTag("K", 3))
        if res.status == "exists":
            q = res.legs[0]
            kq = q.kernel
            kf = f.kernel
            if kq.language_equal(kf):
                return v.yes(note="isomorphic to a verified coequalizer")
    return v.undecided(note="open in the classification table")


def is_regular_monic(
    f: BlockMap, cat: CategoryTag, window_cap: int = 8
) -> v.Verdict:
    li.check_morphism(cat, f)
    fam = an.injectivity_family(f)
    if cat.level == 1 and cat.restriction in ("T", "M", "P"):
        return _isomorphism_rule(f, "regular monos of this category")
    if not fam.injective:
        return v.no(note="not injective")
    img = an.image(f)
    if cat.level == 2 or (cat.restriction, cat.level) == ("K", 3):
        sub = an.is_subsft_of(img, f.target)
        if sub.yes:
            return v.yes(certificate=sub.certificate)
        if sub.no:
            return v.no(witness=sub.witness, note="image is not a subSFT of the target")
        return v.undecided(bound_used=sub.bound_used, note=sub.note)
    # (T/M/P)3: search for an enclosing subSFT whose maximal transitive or
    # mixing part is exactly the image
    for m in range(1, window_cap + 1):
        try:
            z = an.intersection_presentation(f.target, an.sft_approximation(img, m))
        except BudgetExceeded:
            break
        if cat.restriction == "T":
            consts = an.constituents(z)
            if len(consts) == 1 and consts[0].language_equal(img):
                return v.yes(certificate={"window": m})
        else:
            cands, exhaustive = li._maximal_mixing_candidates(z)
            if len(cands) == 1 and exhaustive and cands[0].language_equal(img):
                return v.yes(certificate={"window": m})
    target_sft = an.is_sft(f.target)
    image_sft = an.is_sft(img)
    if target_sft.yes and image_sft.no:
        return v.no(
            note="target is an SFT but the image is properly sofic; no subSFT has it as its"
            " maximal transitive or mixing part",
            witness=image_sft.witness,
        )
    return v.undecided(bound_used={"window_cap": window_cap},
                       note="no enclosing subSFT found within the window cap")


# ---------------------------------------------------------------------------
# Assembled classification


IMPLICATIONS = [
    ("split_epic", "epic"),
    ("regular_epic", "epic"),
    ("split_monic", "monic"),
    ("regular_monic", "monic"),
]


def classify(
    f: BlockMap,
    cat: CategoryTag,
    p_cap: int = DEFAULT_P_CAP,
    radius_cap: int = DEFAULT_RADIUS_CAP,
) -> dict:
    li.check_morphism(cat, f)
    fam = an.injectivity_family(f)
    row = {
        "epic": is_epic(f, cat),
        "monic": is_monic(f, cat),
        "split_epic": is_split_epic(f, cat, p_cap=p_cap, radius_cap=radius_cap),
        "split_monic": is_split_monic(f, cat, radius_cap=radius_cap),
        "regular_epic": is_regular_epic(f, cat),
        "regular_monic": is_regular_monic(f, cat),
        "injective": v.yes() if fam.injective else v.no(),
        "injective_on_periodic": v.yes() if fam.injective_on_periodic else v.no(),
        "injective_on_uniform": v.yes() if fam.injective_on_uniform else v.no(),
        "preinjective": an.is_preinjective(f),
        "peric": an.is_peric(f),
    }
    violations = implication_violations(row)
    if violations:
        raise InternalError(f"classification violates the implication lattice: {violations}")
    return row


def implication_violations(row: dict) -> list[tuple[str, str]]:
    out = []
    for strong, weak in IMPLICATIONS:
        if strong in row and weak in row and row[strong].yes and row[weak].no:
            out.append((strong, weak))
    return out


def exists_morphism(z: Presentation, y: Presentation) -> v.Verdict:
    """Existence of a block map z -> y (existence only, no construction)."""
    if z.is_empty():
        return v.yes(note="empty source; the empty map works")
    pz, py = an.periods(z), an.periods(y)
    bad = pz.first_not_in(py)
    mixing_sft = an.is_mixing(y) and an.is_sft(y).yes
    if bad is not None:
        return v.no(witness={"period": bad})
    if mixing_sft:
        return v.yes(note="period condition holds and target is a mixing SFT")
    return v.undecided(note="period condition holds; target is not a mixing SFT,"
                       " so only the necessary direction applies")
