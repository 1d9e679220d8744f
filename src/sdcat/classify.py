"""The morphism classifier: epic, monic, split epic, split monic,
regular epic, regular monic, per category.

Monicness in M2, and in M3 from an SFT source, reads preinjectivity
first: a map from a mixing SFT that is not preinjective is NO with its
diamond pair, since a diamond spans a mixing SFT off the diagonal of its
kernel, and only the other maps search the kernel graph for petals.  The
split and regular-mono rules read premises, never the level.  A
bijection is an isomorphism, decided by ``limits.bijectivity``: its
inverse is its section and its retraction, and nothing is searched, even
past the inverse's cap.  Nor is it for an endomorphism of a transitive
shift that is not injective: a section would be an injective
endomorphism, onto (Lind & Marcus, Corollary 4.4.9), with inverse f.  For
any other map, split epicness follows the two-sided strategy: the strong
periodic point condition is checked for p = 1..p_cap (a NO at any p is
final), and a radius-capped search looks for an actual section.  A split
YES carries its section or retraction, or names the bound past that cap.
Each word the strong condition asks for is one lazy search of
``automata.missing_word``; the only automata it builds are the target's,
one per pair of ends.  Blank cells of the classification table surface as
UNDECIDED, unless a stronger cell of the row is YES.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from . import analysis as an
from . import automata as au
from . import limits as li
from . import verdicts as v
from .automata import Nfa, Word
from .core import (
    BlockMap,
    Presentation,
    compose,
    diagonal_relation,
    identity_map,
    image_word,
    make_block_map,
    recode_to_symbol_map,
    reduce_radius,
    window_graph,
    _per_object,
    _tails,
)
from .errors import BudgetExceeded, InternalError, budget, check_budget
from .limits import CategoryTag
from .records import record

DEFAULT_P_CAP = 6
DEFAULT_RADIUS_CAP = 3
REGULAR_MONIC_WINDOW_CAP = 8
_DIAMOND_NOTE = "diamond on a mixing SFT: the kernel holds a mixing SFT off the diagonal"


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
        return v.yes() if fam.injective else v.no(witness={"pair": fam.pair}, note="not injective")
    if (r, lvl) == ("T", 3):
        if fam.injective_on_periodic:
            return v.yes()
        return v.no(witness={"pair": fam.periodic_pair}, note="not injective on periodic points")
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
        return v.no(witness={"pair": fam.uniform_pair}, note="not injective on uniform points")
    return v.undecided(note="open in the classification table")


def _monic_m2(f: BlockMap) -> v.Verdict:
    """Monic in M2 exactly when Ker f has no mixing constituent other than
    the diagonal Δ.  A map that is not preinjective is NO with the diamond
    pair of ``analysis.is_preinjective``, and no petal search runs; any
    other map is decided on the kernel graph: NO exactly when some strongly
    connected component has an off-diagonal edge inside it and graph
    period 1.

    Why a diamond decides: X is a mixing SFT, and Ker f is an SFT.  Take M
    at least its memory.  In the M-block graph of Ker f the diagonal blocks
    form a copy of the M-block graph of X, strongly connected and, as X is
    mixing, aperiodic.  A diamond, x ≠ y agreeing outside a finite window
    with f(x) = f(y), is a path that starts and ends in that copy, so its
    off-diagonal blocks lie in the copy's component C, of period 1.  The
    edge shift Z of C is a mixing SFT with Δ ⊊ Z ⊆ Ker f, and its two
    coordinate projections are distinct maps that f makes equal.  This is
    the converse of the note ``is_preinjective`` makes: on a transitive SFT,
    preinjectivity makes Δ a constituent.

    For a preinjective map the graph decides.  The source is an SFT, so its
    canonical presentation has finite memory (Lind & Marcus, Theorem
    3.4.17): the last few symbols of a point fix its state, so its labels
    fix its window-graph path, and the kernel graph's edge shift is
    conjugate to Ker f by its labels.  Hence:

    - the constituents of Ker f are the edge shifts of the components that
      carry an edge, each with shift period equal to its graph period
      (Lind & Marcus, Section 4.5);
    - a component with only diagonal edges presents Δ itself: Δ is
      transitive, so it lies in the edge shift of one component, and a
      subshift of Δ presented by another would have paths in both;
    - any other component presents a constituent other than Δ.

    That NO carries the petals of ``analysis.mixing_petals``, searched
    before any component pass: their flower is a mixing SFT with two
    distinct projections that ``f`` makes equal.  A YES lists the component
    pass's period of each component with an off-diagonal edge, each 2 or
    more.
    """
    if (pre := an.is_preinjective(f)).no:
        return v.no(witness=pre.witness, note=_DIAMOND_NOTE)
    petals = an.mixing_petals(f)
    if petals is not None:
        return v.no(note="kernel has a mixing constituent besides the diagonal",
                    witness={"petals": petals})
    periods = [period for _, _, period in an.off_diagonal_components(f)]
    return v.yes(certificate={"off_diagonal_periods": periods})


def _monic_m3(f: BlockMap, fam) -> v.Verdict:
    """On an SFT source, by the follower-set window that ``analysis.is_sft``
    reads, a map that is not preinjective is NO with its diamond pair, as in
    :func:`_monic_m2`: the mixing SFT Z found there is sofic, so its
    projections are morphisms of M3 too.  A sofic source is not searched
    for an SFT witness, and keeps the rest.  Then the graph test of
    :func:`_monic_m2`.  On a sofic source its petals still span a mixing
    SFT whose two projections ``f`` makes equal, so a NO is sound.  But
    labels need not fix paths there, and a component of period 2 or more
    can present a mixing sofic subshift off the diagonal, so when the test
    finds nothing the canonical kernel decides: NO when one of its maximal
    mixing subshifts leaves the diagonal, YES when every mixing subshift
    lies in one of them.  The source is mixing, so a constituent that
    contains the diagonal has a cofinite period set and makes the
    candidates not exhaustive."""
    if an._memory_window(f.source) is not None and (pre := an.is_preinjective(f)).no:
        return v.no(witness=pre.witness, note=_DIAMOND_NOTE)
    petals = an.mixing_petals(f)
    if petals is not None:
        return v.no(note="kernel graph has a mixing component off the diagonal",
                    witness={"petals": petals})
    if fam.injective:
        return v.yes(note="injective")
    if fam.injective_on_periodic:
        return v.yes(note="injective on periodic points")
    cands, exhaustive = li._maximal_parts(f.kernel, "M")
    diag = diagonal_relation(f.source)
    if any(not c.included_in(diag) for c in cands):
        return v.no(note="kernel contains a mixing sofic subshift off the diagonal")
    if exhaustive:
        return v.yes(note="all off-diagonal constituents have sparse period sets")
    return v.undecided(note="no witness among the implemented classes")


# ---------------------------------------------------------------------------
# The strong periodic point condition


@record
class StrongConditionReport:
    p: int
    holds: bool
    assignment: tuple[tuple[Word, Word], ...] = ()
    failures: tuple[dict, ...] = ()
    pointwise: dict | None = None


@_per_object
def _aligned_periodic_preimages(f: BlockMap, n: int) -> dict[Word, list[Word]]:
    """For each word u of length ``n``, the words a with the a-periodic
    point mapping onto the u-periodic point, phase aligned, in
    ``periodic_words`` order."""
    out: dict[Word, list[Word]] = {}
    for a in f.source.periodic_words(n):
        out.setdefault(image_word(f, a), []).append(a)
    return out


@_per_object
def _symbol_recoding(f: BlockMap):
    """``(f0, to_blocks, from_blocks, pre)``: ``f`` recoded as the radius-0
    map ``f0`` on its higher block presentation, with the conjugacy pair of
    ``recode_to_symbol_map``, and the live block symbols over each target
    symbol."""
    f0, to_blocks, from_blocks = recode_to_symbol_map(f)
    xb = f0.source
    pre: dict[str, list[str]] = {}
    for t in xb.live_symbols:
        pre.setdefault(f0.local((t,)), []).append(t)
    return f0, to_blocks, from_blocks, pre


@_per_object
def _bridges(y: Presentation, left: frozenset[int], right: frozenset[int]):
    """The words that ``y`` reads from a state in ``left`` to one in
    ``right``, kept on the target for every map into it."""
    return au.determinize(Nfa(y.alphabet, max(1, y.n_live()), y.edges, left, right))


@_per_object
def _pre_rows(f: BlockMap) -> list[dict[str, set[int]]]:
    """For each state of the recoded source, the states its edges lead to,
    by the image symbol of the edge."""
    f0 = _symbol_recoding(f)[0]
    rows: list[dict[str, set[int]]] = [{} for _ in range(f0.source.n_live())]
    for q, t, q2 in f0.source.edges:
        rows[q].setdefault(f0.local((t,)), set()).add(q2)
    return rows


@_per_object
def _pre_step(f: BlockMap, states: frozenset[int]) -> dict[str, frozenset[int]]:
    """The states of the recoded source that preimage edges lead to from
    ``states``, by image symbol."""
    return {sym: frozenset(dsts) for sym, dsts in au._subset_step(_pre_rows(f), states).items()}


@_per_object
def _reads(f: BlockMap, word: Word) -> tuple[frozenset[int], ...]:
    """For each state of the recoded source, the states that preimage paths
    of ``word`` lead to from it."""
    out = []
    for q in range(len(_pre_rows(f))):
        states = frozenset([q])
        for sym in word:
            states = _pre_step(f, states).get(sym, frozenset())
        out.append(states)
    return tuple(out)


@_per_object
def _back(f: BlockMap, v: Word) -> list[list[int]]:
    """For each state, the states with a preimage path of ``v`` into it:
    :func:`_reads` transposed."""
    reads = _reads(f, v)
    back: list[list[int]] = [[] for _ in reads]
    for q, ends in enumerate(reads):
        for p in ends:
            back[p].append(q)
    return back


@_per_object
def _preimage_tails(f: BlockMap, u: Word, a: Word) -> tuple[frozenset[int], frozenset[int]]:
    """The states of the recoded source where a preimage path can be after
    a left tail repeating ``a`` and preimages of any power of ``u``, and
    those from which preimages of a power of ``u`` and then a right tail
    repeating ``a`` can follow.  The ends of ``a`` alone are the
    :func:`_tails` of its block word, kept on the recoded source, which
    every map of this width from the source shares."""
    f0, to_blocks, _, _ = _symbol_recoding(f)
    left, right = _tails(f0.source, image_word(to_blocks, a))
    return (frozenset(au.closure(left, _reads(f, u).__getitem__)),
            frozenset(au.closure(right, _back(f, u).__getitem__)))


@_per_object
def _missed(f: BlockMap, left: frozenset[int], right: frozenset[int],
            starts: frozenset[int], accepts: frozenset[int]) -> Word | None:
    """The shortlex-least word that the target reads from ``left`` to
    ``right`` and that no preimage path reads from ``starts`` to
    ``accepts``, or None: the lazy search of ``automata.missing_word``
    against the kept :func:`_bridges`, stepping the recoded source through
    :func:`_pre_step`.  The search tests nonempty words only, so the empty
    word is tested here."""
    if not left.isdisjoint(right) and starts.isdisjoint(accepts):
        return ()
    return au.missing_word(_bridges(f.target, left, right), partial(_pre_step, f), starts, accepts)


def _missed_between(f: BlockMap, c, d) -> Word | None:
    """The missed word from the left end and start of the class ``c`` of a
    choice to the right end and accept of the class ``d``."""
    return _missed(f, c[0], d[1], c[2], d[3])


def strong_condition(f: BlockMap, p: int) -> StrongConditionReport:
    """Decide the strong p-periodic point condition exactly.

    A failing report carries tuples (u, v, w, a, b): with preimage tails a
    for u and b for v, the point repeating u, reading w, then repeating v
    has no conforming preimage.

    A choice (u, a) enters every check only through its class, the ends
    ``_tails(y, u) + _preimage_tails(f, u, a)``, and a word pair off the
    diagonal only through u's left end and starts and v's right end and
    accepts: each key pair that can fail is checked once, in word-pair
    order, and the global search runs on sets of classes.
    """
    y = f.target
    words = [u for n in range(1, p + 1) for u in y.periodic_words(n)]
    if not words:
        return StrongConditionReport(p, True)
    cands = {u: _aligned_periodic_preimages(f, len(u)).get(u, ()) for u in words}
    failures = [{"u": u, "reason": "no aligned periodic preimage of the same length"}
                for u in words if not cands[u]]
    if failures:
        return StrongConditionReport(p, False, failures=tuple(failures))
    cls = {(u, a): _tails(y, u) + _preimage_tails(f, u, a) for u in words for a in cands[u]}

    # unary pruning on the diagonal
    for u in words:
        pruned = [(a, _missed_between(f, cls[u, a], cls[u, a])) for a in cands[u]]
        cands[u] = [a for a, w in pruned if w is None]
        failures += [{"u": u, "v": u, "w": w, "a": a, "b": a} for a, w in pruned if w is not None]
        if not cands[u]:
            return StrongConditionReport(p, False, failures=tuple(failures))

    # pointwise failing tuple: some (u, v, w) bad for every candidate pair.
    # The pairs run over every start of u and every accept of v, so one
    # search from the union of the starts to that of the accepts stands
    # for all of them.  Each candidate alone
    # reads every word from u's tails to u's, so no pair fails whose v has
    # u's right key, and row u needs only the first word of each other key
    left = {u: (cls[u, cands[u][0]][0], frozenset(cls[u, a][2] for a in cands[u])) for u in words}
    right = {u: (cls[u, cands[u][0]][1], frozenset(cls[u, a][3] for a in cands[u])) for u in words}
    firsts: dict = {}
    for vv in words:
        firsts.setdefault(right[vv], vv)
    passed = set()
    for u in words:
        for key, vv in firsts.items():
            if key != right[u] and (left[u], key) not in passed:
                passed.add((left[u], key))
                w = _missed(f, left[u][0], key[0], frozenset().union(*left[u][1]),
                            frozenset().union(*key[1]))
                if w is not None:
                    tuples = tuple({"u": u, "v": vv, "w": w, "a": a, "b": b}
                                   for a, b in product(cands[u], cands[vv]))
                    return StrongConditionReport(p, False, failures=tuples,
                                                 pointwise={"u": u, "v": vv, "w": w})

    # one preimage per word, every two of them consistent: the smallest
    # domain first, over sorted words
    order = sorted(words, key=lambda u: (len(cands[u]), u))
    chosen = _consistent_choice(f, [[(a, cls[u, a]) for a in cands[u]] for u in order])
    if chosen is not None:
        return StrongConditionReport(p, True, assignment=tuple(sorted(zip(order, chosen))))
    failures.append({"reason": "no globally consistent preimage assignment"})
    return StrongConditionReport(p, False, failures=tuple(failures))


def _consistent_choice(f: BlockMap, domains) -> list | None:
    """The first choice, depth first, of one value from each of
    ``domains`` (lists of ``(value, class)``) whose classes are pairwise
    consistent: no word is missed between two of them either way.  Each
    class left after the unary pruning is consistent with itself, so a
    value is checked against the set of classes chosen so far, and a
    (depth, class set) whose subtree failed is not searched again.  Each
    value tried counts against the budget as "strong condition search"."""
    failed, chosen = set(), []
    # sets[k]: the classes chosen above depth k; values[k]: its untried values
    sets, values = [frozenset()], [iter(domains[0])]
    tried, cap = 0, budget()
    while values:
        k = len(values) - 1
        for val, c in values[k]:
            tried += 1
            if tried > cap:
                check_budget(tried, "strong condition search")
            have = sets[k] | {c}
            if (k + 1, have) not in failed and all(
                    _missed_between(f, c, d) is None and _missed_between(f, d, c) is None
                    for d in sets[k]):
                break
        else:
            failed.add((k, sets.pop()))
            values.pop()
            continue
        chosen[k:] = [val]
        if k + 1 == len(domains):
            return chosen
        sets.append(have)
        values.append(iter(domains[k + 1]))
    return None


# ---------------------------------------------------------------------------
# Section and retraction searches


def _watchers(n: int, follows, allowed) -> list[list]:
    """For each variable j, each ``(i, supports)`` with ``(i, j)`` or
    ``(j, i)`` in ``follows``, ``i != j``: ``supports[a]`` holds the values
    of j that the value a of i pairs with in ``allowed``."""
    nexts: dict = {}
    prevs: dict = {}
    for a, b in allowed:
        nexts.setdefault(a, set()).add(b)
        prevs.setdefault(b, set()).add(a)
    watch: list[list] = [[] for _ in range(n)]
    for i, j in set(follows):
        if i != j:
            watch[j].append((i, nexts))
            watch[i].append((j, prevs))
    return watch


def _revise(doms: list, watch, pending: set, trail: list, work: int, what: str):
    """Prune ``doms`` in place to arc consistency (AC-3; Mackworth, 1977):
    each watcher of a variable in ``pending`` keeps, in order, the values
    with a support left in it, and logs each domain it replaces in
    ``trail`` as ``(doms, i, old)``.  Returns whether no domain emptied,
    and ``work`` plus the values checked, counted against the budget."""
    cap, no_support = budget(), frozenset()
    while pending:
        j = pending.pop()
        for i, supports in watch[j]:
            work += len(doms[i])
            if work > cap:
                check_budget(work, what)
            keep = tuple(a for a in doms[i] if not supports.get(a, no_support).isdisjoint(doms[j]))
            if len(keep) < len(doms[i]):
                if not keep:
                    return False, work
                trail.append((doms, i, doms[i]))
                doms[i] = keep
                pending.add(i)
    return True, work


def _first_block_map(y: Presentation, x: Presentation, rho: int, values, what: str, point=None):
    """The first block map y -> x of radius ``rho``, or None when there is
    none: each window of ``y`` takes one of ``values(window)`` in order,
    smallest domain first in an order fixed before any pruning, and the
    window of ``y.point`` takes ``point`` when given.  Overlapping windows
    take 2-blocks of ``x``, kept arc consistent after each assignment
    (MAC; Sabin & Freuder, CP 1994).  Each node of ``window_graph(y, 2 rho
    + 1)`` keeps the states of ``x.dfa`` that paths of assigned windows
    reach (after Pesant's ``regular``, CP 2004); every node lies on a
    bi-infinite path, so a missing transition refutes the branch, and a
    full assignment is a block map.  Both drop only values in no block
    map, so the map found is the first of the search without them.  Each
    value tried or checked and each automaton step counts against the work
    budget as ``what``; the stack is explicit, not the interpreter's."""
    windows = y.words(2 * rho + 1)
    wpos = {w: i for i, w in enumerate(windows)}
    # at[i]: (source, target) of each edge of window i; out[k]: (window,
    # target) of each edge out of node k
    nodes, edges = window_graph(y, 2 * rho + 1)
    at: list[list] = [[] for _ in windows]
    out: list[list] = [[] for _ in nodes]
    for k, w, t in edges:
        at[wpos[w]].append((k, t))
        out[k].append((wpos[w], t))
    follows = {(i, j) for i, ends in enumerate(at) for _, t in ends for j, _ in out[t]}
    check_budget(len(follows), what)
    allowed = set(x.words(2))
    doms = [tuple(values(w)) for w in windows]
    order = sorted(range(len(doms)), key=lambda i: len(doms[i]))
    for i in (i for i, j in follows if i == j):
        doms[i] = tuple(a for a in doms[i] if (a, a) in allowed)
    if point is not None and y.point is not None:
        i = wpos[(y.point,) * (2 * rho + 1)]
        doms[i] = tuple(a for a in doms[i] if a == point)
    # a window open to every symbol of x supports every value: each has neighbours in x
    syms = {a for pair in allowed for a in pair}
    watch, trail = _watchers(len(doms), follows, allowed), []
    ok, work = _revise(doms, watch, {i for i, d in enumerate(doms) if not syms.issubset(d)},
                       trail, 0, what)
    rows, cap = x.dfa.rows, budget()
    reach, value = [frozenset([x.dfa.init])] * len(nodes), [None] * len(windows)

    def assign(i, a) -> bool:
        nonlocal work
        trail.append((value, i, None))
        value[i] = a
        if len(doms[i]) > 1:
            trail.append((doms, i, doms[i]))
            doms[i] = (a,)
            ok, work = _revise(doms, watch, {i}, trail, work, what)
            if not ok:
                return False
        # (state, symbol, node): a state to read along an edge into the node
        todo = [(q, a, t) for k, t in at[i] for q in reach[k]]
        while todo:
            q, b, t = todo.pop()
            work += 1
            if work > cap:
                check_budget(work, what)
            p = rows[q].get(b)
            if p is None:
                return False
            if p not in reach[t]:
                trail.append((reach, t, reach[t]))
                reach[t] = reach[t] | {p}
                todo += [(p, value[j], t2) for j, t2 in out[t] if value[j] is not None]
        return True

    # each depth's untried values and the trail when it was entered; none
    # when the pruning emptied a domain
    stack = [(iter(doms[order[0]]), len(trail))] if ok else []
    while stack:
        untried, mark = stack[-1]
        for a in untried:
            while len(trail) > mark:
                store, i, old = trail.pop()
                store[i] = old
            work += 1
            if work > cap:
                check_budget(work, what)
            if assign(order[len(stack) - 1], a):
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            return make_block_map(y, x, rho, dict(zip(windows, value)), validate_image=False)
        stack.append((iter(doms[order[len(stack)]]), len(trail)))
    return None


def find_section(f: BlockMap, radius_cap: int = DEFAULT_RADIUS_CAP, pointed: bool = False):
    """Search for g with f . g = identity on the target, at block-level
    radii 0..radius_cap.  Returns g or None."""
    y = f.target
    if y.is_empty():
        return make_block_map(y, f.source, 0, {}, validate_image=False)
    for rho in range(0, radius_cap + 1):
        g = _section_at(f, rho, pointed)
        if g is not None:
            return g
    return None


@_per_object
def _section_at(f: BlockMap, rho: int, pointed: bool):
    """The first section that the search at block-level radius ``rho``
    finds, or None; kept per map, so a larger radius cap searches only the
    radii it adds.

    Each window of the target takes a symbol of the recoded source that
    ``f`` sends to the window's center, so the map found is a section by
    construction: f . g = identity.  When ``pointed``, the window of the
    target's point takes the block symbol of the source's point."""
    f0, to_blocks, from_blocks, pre = _symbol_recoding(f)
    px = f.source.point
    point = to_blocks.local((px,) * to_blocks.width()) if pointed and px is not None else None
    gb = _first_block_map(f.target, f0.source, rho, lambda w: pre.get(w[rho], ()),
                          "section search", point)
    return None if gb is None else reduce_radius(compose(from_blocks, gb))


def find_retraction(f: BlockMap, radius_cap: int = DEFAULT_RADIUS_CAP, pointed: bool = False):
    """Search for h with h . f = identity on the source.

    The windows of the image of ``f`` take the values that h . f =
    identity forces, each as a one-value domain; the rest is the shared
    window search, whose pruning carries the forced values to their
    neighbours, so the map found is a retraction by construction.  When
    ``pointed``, the target's point goes to the source's."""
    x, y = f.source, f.target
    if x.is_empty():
        return make_block_map(y, x, 0, {}, validate_image=False) if y.is_empty() else None
    xsyms = x.live_symbols
    for rho in range(0, radius_cap + 1):
        forced = li.forced_values(f, identity_map(x), rho)
        if forced is None:
            continue
        h = _first_block_map(y, x, rho, lambda w: (forced[w],) if w in forced else xsyms,
                             "retraction search", x.point if pointed else None)
        if h is not None:
            return reduce_radius(h)
    return None


# ---------------------------------------------------------------------------
# Split epic / split monic


def _bijection(f: BlockMap) -> v.Verdict | None:
    """A bijection's split verdict: YES with its inverse and the inverse's
    radius, or the past-cap YES of ``limits.bijectivity``; None when ``f``
    is no bijection or a question ran out of budget."""
    try:
        bij = li.bijectivity(f)
    except BudgetExceeded:
        return None
    if bij.yes and bij.certificate is not None:
        return v.yes(certificate=bij.certificate, bound_used={"radius": bij.certificate.radius})
    return bij if bij.yes else None


def is_split_epic(
    f: BlockMap,
    cat: CategoryTag,
    p_cap: int = DEFAULT_P_CAP,
    radius_cap: int = DEFAULT_RADIUS_CAP,
) -> v.Verdict:
    """Whether ``f`` has a section, by injectivity if ``f`` is a transitive
    shift's endomorphism (every map at level 1 of T, M and P is one),
    surjectivity, :func:`_bijection`, then the searches."""
    li.check_morphism(cat, f)
    if (f.source.language_equal(f.target) and an.is_transitive(f.source)
            and not (fam := an.injectivity_family(f)).injective):
        return v.no(witness={"pair": fam.pair}, note="not injective, and a section of a transitive"
                    " shift's endomorphism is an automorphism (Lind & Marcus, Corollary 4.4.9)")
    surj = an.surjectivity(f)
    if surj.no:
        return v.no(witness=surj.witness, note="not surjective")
    if (split := _bijection(f)) is not None:
        return split
    first = (("sc", 1), ("sec", 0), ("sec", 1), ("sc", 2), ("sc", 3), ("sec", 2), ("sec", 3))
    phases = [(kind, k) for kind, k in first if k <= (p_cap if kind == "sc" else radius_cap)]
    phases += [("sc", p) for p in range(4, p_cap + 1)]
    phases += [("sec", r) for r in range(4, radius_cap + 1)]
    for kind, k in phases:
        if kind == "sc":
            rep = strong_condition(f, k)
            if not rep.holds:
                return v.no(
                    witness={"p": k, "failures": list(rep.failures)},
                    note="strong periodic point condition fails",
                )
        else:
            g = find_section(f, radius_cap=k, pointed=cat.pointed)
            if g is not None:
                return v.yes(certificate=g, bound_used={"radius": g.radius})
    note = f"no section at block radius <= {radius_cap}"
    # every strong-condition phase up to p_cap has run and held
    if an.is_sft(f.source).yes:
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
    """Whether ``f`` has a retraction h: NO if ``f`` is not injective, the
    inverse for a bijection, and NO by the period rule, as h sends a point
    of period n to one of period dividing n.  Then the retraction search,
    and if it finds none, YES for a mixing SFT source by the Extension
    Lemma (Boyle 1983; Lind & Marcus, Lemma 10.1.8): for shift spaces X ⊆
    Y and a mixing SFT Z with P(Y) ↘ P(Z), every sliding block code X → Z
    extends to Y.  Here Y is the target, X the image, Z the source and the
    code the inverse of ``f`` on X.  ``period_inclusion(target, source)``
    says σ^n fixes a point of Z wherever it fixes one of Y, so a point of
    least period n in Y has one in Z of least period dividing n: P(Y) ↘
    P(Z).  In P the target's point lies in X, so the extension keeps it.
    Else NO where ``is_regular_monic`` is NO, since a split mono is regular
    (the equalizer of id and f . h).  No rule reads the level."""
    li.check_morphism(cat, f)
    fam = an.injectivity_family(f)
    if not fam.injective:
        return v.no(witness={"pair": fam.pair}, note="not injective")
    if (split := _bijection(f)) is not None:
        return split
    peric = an.period_inclusion(f.target, f.source)
    if peric.no:
        return v.no(witness=peric.witness, note="a target period has no matching source period")
    h = find_retraction(f, radius_cap=radius_cap, pointed=cat.pointed)
    if h is not None:
        return v.yes(certificate=h, bound_used={"radius": h.radius})
    searched = f"no retraction of radius <= {radius_cap}"
    if an.is_mixing(f.source) and an.is_sft(f.source).yes:
        return v.yes(note=f"{searched}, but one exists by the Extension Lemma"
                     " (Lind & Marcus, Lemma 10.1.8)")
    if (reg := is_regular_monic(f, cat)).no:
        return v.no(witness=reg.witness, note="not regular monic, and a split mono is regular")
    return v.undecided(bound_used={"radius_cap": radius_cap}, note=searched)


# ---------------------------------------------------------------------------
# Regular epic / regular monic


def is_regular_epic(f: BlockMap, cat: CategoryTag, witness_endo: BlockMap | None = None) -> v.Verdict:
    """Whether ``f`` is a coequalizer.  Every epi of K2 and K3 is, and in P1
    only the isomorphisms are, so a map that is not injective is NO there."""
    li.check_morphism(cat, f)
    if (cat.restriction, cat.level) == ("P", 1) and not (fam := an.injectivity_family(f)).injective:
        return v.no(witness={"pair": fam.pair}, note="regular epis of P1 are the isomorphisms")
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
    if _bijection(f) is not None:
        return v.yes(note="bijective, so an isomorphism, and every isomorphism is a regular epi")
    return v.undecided(note="open in the classification table")


def is_regular_monic(f: BlockMap, cat: CategoryTag) -> v.Verdict:
    """Whether ``f`` is injective with an image of the form the category
    asks for; an onto map's image is its target, and is not built.  In K
    that form is a subSFT of the target, as an equalizer set is.  An SFT
    source's image is one, its own maximal part in T, M and P too; for any
    other image, these search for an enclosing subSFT whose maximal part
    is the image.  No rule reads the level."""
    li.check_morphism(cat, f)
    fam = an.injectivity_family(f)
    if not fam.injective:
        return v.no(witness={"pair": fam.pair}, note="not injective")
    img = f.target if an.surjectivity(f).yes else an.image(f)
    if cat.restriction == "K" or an.is_sft(f.source).yes:
        sub = an.is_subsft_of(img, f.target)
        if sub.yes:
            return v.yes(certificate=sub.certificate)
        if sub.no:
            return v.no(witness=sub.witness, note="image is not a subSFT of the target")
        return v.undecided(bound_used=sub.bound_used, note=sub.note)
    for m in range(1, REGULAR_MONIC_WINDOW_CAP + 1):
        try:
            z = an.intersection_presentation(f.target, an.sft_approximation(img, m))
        except BudgetExceeded:
            break
        parts, exhaustive = li._maximal_parts(z, cat.restriction)
        if len(parts) == 1 and exhaustive and parts[0].language_equal(img):
            return v.yes(certificate={"window": m})
    target_sft = an.is_sft(f.target)
    image_sft = an.is_sft(img)
    if target_sft.yes and image_sft.no:
        return v.no(
            note="target is an SFT but the image is properly sofic; no subSFT has it as its"
            " maximal transitive or mixing part",
            witness=image_sft.witness,
        )
    return v.undecided(bound_used={"window_cap": REGULAR_MONIC_WINDOW_CAP},
                       note="no enclosing subSFT found within the window cap")


# ---------------------------------------------------------------------------
# Assembled classification


IMPLICATIONS = [
    ("split_epic", "epic"),
    ("regular_epic", "epic"),
    ("split_monic", "monic"),
    ("regular_monic", "monic"),
    # with section s, f is the coequalizer of (id, s . f); dually for monos
    ("split_epic", "regular_epic"),
    ("split_monic", "regular_monic"),
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
        "injective": v.yes() if fam.injective else v.no(witness={"pair": fam.pair}),
        "injective_on_periodic": v.yes() if fam.injective_on_periodic else v.no(
            witness={"pair": fam.periodic_pair}),
        "injective_on_uniform": v.yes() if fam.injective_on_uniform else v.no(
            witness={"pair": fam.uniform_pair}),
        "preinjective": an.is_preinjective(f),
        "peric": an.is_peric(f),
    }
    # a YES settles each weaker cell that its own rule left open
    for strong, weak in IMPLICATIONS:
        if row[strong].yes and row[weak].undecided:
            row[weak] = v.yes(note=f"{strong} implies {weak}")
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
    per = an.period_inclusion(z, y)
    if per.no:
        return v.no(witness=per.witness)
    if an.is_mixing(y) and an.is_sft(y).yes:
        return v.yes(note="period condition holds and target is a mixing SFT")
    return v.undecided(note="period condition holds; target is not a mixing SFT,"
                       " so only the necessary direction applies")
