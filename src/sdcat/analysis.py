"""Shift-level and map-level predicates.

Images, kernel sets, equalizer sets, constituents, transitivity and
mixing, period sets, SFT-ness (absolute and relative), surjectivity, the
injectivity family, preinjectivity, and resolvingness.  Everything here is
exact except where a verdict explicitly says otherwise.

Facts about one shift or one map are decided once per object and kept on
it, as ``BlockMap.image`` is; an UNDECIDED verdict, which depends on the
work budget, is not kept.  Surjectivity is one such fact: every epic,
bijectivity and cokernel test reads ``surjectivity(f)``, which builds no
image.  Its YES is the Garden-of-Eden theorem for a preinjective
endomorphism of a transitive SFT, and otherwise an exhausted search for a
target word outside the image, whose first hit is the NO witness.

Each shift fact is one pass over a graph already built.  SFT-ness and the
least window are read off the pairs of follower sets, ``_memory_window``,
and only a shift that is none is searched for a witness.  The period set
explores the syntactic monoid once, as partial word actions on the
canonical automaton, and keeps its size; cycles are found by the peel of
``core._orbit_ends``.  Following a step until a value repeats is one
routine, ``_orbit``, charged to the budget: the period set follows the
element sets of each word length, and the witness search the state sets
of u w^n, each membership pattern a ``PeriodSet``; the search also charges
the mid words and class pairs it tries.  An SCC subshift's period is that
of the sink component of its own automaton, the Fischer cover.

The injectivity family, preinjectivity and resolvingness ask whether the
kernel pair has a bi-infinite path with a given label pattern, so they
read the kernel graph through one diagonal view per map, built in the
pass that pairs the map's windows, ``_diagonal_view``, and build no
canonical kernel.  Their NO witnesses, two distinct eventually periodic
points with equal images, are read off a path of that graph.  One SCC
pass of the graph per map, ``off_diagonal_components``, answers
injectivity on periodic points, and the graph periods the same pass gives
its components yield the mixing petals that decide monicness in M2.  Constituents of the kernel, kernel
pairs and other questions about its language read ``f.kernel``.
"""

from __future__ import annotations

import math
from functools import partial, reduce

from . import automata as au
from . import verdicts as v
from .automata import Word
from .core import (
    BlockMap,
    EventuallyPeriodicPoint,
    PeriodicPoint,
    Presentation,
    center_of,
    fiber_presentation,
    full_shift,
    image_graph,
    image_presentation,
    image_word,
    make_block_map,
    pair_symbol,
    presentation_from_edges,
    product_alphabet,
    sft_approximation,
    side_by_side,
    window_graph,
    _infinite_past,
    _fiber_sides,
    _live_nodes,
    _matched_edges,
    _matched_rows,
    _orbit_ends,
    _per_object,
    _tails,
)
from .errors import BudgetExceeded, DomainMismatch, InternalError, ValidationError, budget, check_budget
from .records import record, uncompared

EP_MID_WORD_CAP = 4000

image = image_presentation


# ---------------------------------------------------------------------------
# Subshift relations


@record
class SubshiftRelation:
    """A subshift of the product of two shifts, over the pair alphabet."""

    presentation: Presentation
    left: Presentation
    right: Presentation


def kernel_set(f: BlockMap) -> SubshiftRelation:
    """Pairs of source points with equal image."""
    return SubshiftRelation(f.kernel, f.source, f.source)


def graph_relation(f: BlockMap) -> SubshiftRelation:
    """The relation {(x, f(x))} inside source x target."""
    x = f.source
    alphabet = product_alphabet(x.alphabet, f.target.alphabet)
    nodes, edges = window_graph(x, f.width())
    edges = [(k, (center_of(w), f.local(w)), t) for k, w, t in edges]
    return SubshiftRelation(presentation_from_edges(alphabet, len(nodes), edges), x, f.target)


def swap_relation(r: SubshiftRelation) -> SubshiftRelation:
    pres = r.presentation
    alphabet = product_alphabet(r.right.alphabet, r.left.alphabet)
    edges = [(i, t[::-1], j) for i, t, j in pres.edges]
    return SubshiftRelation(presentation_from_edges(alphabet, pres.n_live(), edges),
                            r.right, r.left)


def relation_projections(r: SubshiftRelation):
    """The two coordinate block maps out of the relation."""
    pres = r.presentation
    return (make_block_map(pres, r.left, 0, {(t,): t[0] for t in pres.live_symbols}),
            make_block_map(pres, r.right, 0, {(t,): t[1] for t in pres.live_symbols}))


def equalizer_set(f: BlockMap, g: BlockMap) -> Presentation:
    """The subshift {x : f(x) = g(x)} of the common source."""
    if not f.source.language_equal(g.source) or not f.target.language_equal(g.target):
        raise DomainMismatch("equalizer of maps with different domains")
    x = f.source
    if x.is_empty():
        return x
    r = max(f.radius, g.radius)
    fr = f.padded_rule(r)
    gr = g.padded_rule(r)
    nodes, edges = window_graph(x, 2 * r + 1)
    edges = [(k, center_of(w), t) for k, w, t in edges if fr[w] == gr[w]]
    return presentation_from_edges(x.alphabet, len(nodes), edges)


def fiber_product(f: BlockMap, g: BlockMap) -> SubshiftRelation:
    """{(x, y) : f(x) = g(y)} for maps with a common target."""
    return SubshiftRelation(fiber_presentation(f, g), f.source, g.source)


def intersection_presentation(x: Presentation, y: Presentation) -> Presentation:
    """The subshift intersection (synchronized product on a shared alphabet)."""
    if set(x.alphabet) != set(y.alphabet):
        raise ValidationError("intersection needs a common alphabet")
    ny = y.n_live()
    edges = _matched_edges([(i, a, a, j) for i, a, j in x.edges],
                           [(i, a, a, j) for i, a, j in y.edges], ny, lambda a, _: a)
    return presentation_from_edges(x.alphabet, x.n_live() * ny, edges)


def union_presentation(x: Presentation, y: Presentation) -> Presentation:
    """The union subshift (language union of factor languages)."""
    if set(x.alphabet) != set(y.alphabet):
        raise ValidationError("union needs a common alphabet")
    same = {a: a for a in x.alphabet}
    return side_by_side(x, y, same, same)


# ---------------------------------------------------------------------------
# Constituents, transitivity, mixing


def scc_subshift(x: Presentation, comp: list[int]) -> Presentation:
    idx = {q: i for i, q in enumerate(comp)}
    edges = [(idx[q], a, idx[p]) for q, a, p in x.edges if q in idx and p in idx]
    return presentation_from_edges(x.alphabet, len(comp), edges)


@_per_object
def cycle_components(x: Presentation) -> tuple[tuple[tuple[int, ...], Presentation], ...]:
    """(component, subshift) for each SCC of the essential graph that
    carries an internal edge, that is whose graph period is nonzero.

    Each subshift's ``shift_period`` is kept from its own canonical
    automaton.  The subshift is irreducible, so the follower sets of its
    synchronizing words are that automaton's one sink component, which
    every state reaches: the Fischer cover, its unique follower-separated
    irreducible right-resolving presentation (Lind & Marcus, Section
    3.3).  Tarjan's pass emits a sink component first, and its graph
    period is the one ``shift_period`` would find.
    """
    out = []
    sccs = au.strongly_connected_components(range(x.n_live()), lambda i: x.live_trans[i].values())
    for comp, graph_period in sccs:
        if not graph_period:
            continue
        sub = scc_subshift(x, comp)
        (_, period), *_ = au.strongly_connected_components(
            range(sub.dfa.n), lambda q: [p for _, p in sub.dfa.trans[q]])
        vars(sub)[shift_period.key] = period
        out.append((tuple(comp), sub))
    return tuple(out)


def inclusion_maximal(shifts) -> tuple[Presentation, ...]:
    """The inclusion-maximal shifts among ``shifts``, one per language."""
    out: list[Presentation] = []
    for s in shifts:
        if any(s.included_in(t) for t in out):
            continue
        out = [t for t in out if not t.included_in(s)]
        out.append(s)
    return tuple(out)


@_per_object
def constituents(x: Presentation) -> tuple[Presentation, ...]:
    """Maximal transitive subshifts: the inclusion-maximal SCC subshifts of
    the canonical presentation."""
    return inclusion_maximal(s for _, s in cycle_components(x))


@_per_object
def shift_period(x: Presentation) -> int | None:
    """gcd of return times on the minimal synchronizing presentation of a
    transitive shift (0 for the empty shift), None when ``x`` is not
    transitive.

    ``x`` is transitive exactly when one of its SCC subshifts is ``x``
    itself, since that one is then a constituent; its period is kept by
    ``cycle_components``.
    """
    if x.is_empty():
        return 0
    for _, sub in cycle_components(x):
        if sub.language_equal(x):
            return shift_period(sub)
    return None


def is_transitive(x: Presentation) -> bool:
    return shift_period(x) is not None


def is_mixing(x: Presentation) -> bool:
    return shift_period(x) in (0, 1)


# ---------------------------------------------------------------------------
# Period sets


@record
class PeriodSet:
    """The set {n >= 1 : some point is fixed by the n-th shift power},
    stored as an explicit part below ``threshold`` and a periodic pattern
    (period ``modulus``) beyond it."""

    threshold: int
    modulus: int
    explicit: frozenset[int]
    eventual: tuple[bool, ...]

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if n < self.threshold:
            return n in self.explicit
        return self.eventual[(n - self.threshold) % self.modulus]

    def upto(self, n: int) -> list[int]:
        return [k for k in range(1, n + 1) if self.contains(k)]

    def is_cofinite(self) -> bool:
        return all(self.eventual)

    def residues(self) -> list[int]:
        return sorted({(self.threshold + i) % self.modulus for i, f in enumerate(self.eventual) if f})

    @classmethod
    def of_orbit(cls, flags, t: int) -> "PeriodSet":
        """The n >= 1 with ``flags[n - 1]``, the flags repeating from
        index ``t`` on, as an :func:`_orbit` gives them."""
        return cls(t + 1, len(flags) - t, frozenset(n + 1 for n in range(t) if flags[n]),
                   tuple(flags[t:]))

    def first_not_in(self, other: "PeriodSet") -> int | None:
        bound = max(self.threshold, other.threshold) + math.lcm(self.modulus, other.modulus)
        for n in range(1, bound + 1):
            if self.contains(n) and not other.contains(n):
                return n
        return None


@_per_object
def periods(x: Presentation) -> PeriodSet:
    """Exact sigma^n fixed-point period set.  The monoid of the partial
    word actions on the states of ``x.dfa`` is explored once, counted under
    "transition monoid"; the sets of element numbers of the words of each
    length follow one another through its rows until one repeats, and each
    element is tested for a cycle at most once.

    That monoid is the syntactic monoid of the language, whose size
    :func:`monoid_size` keeps.  A state on a cycle of an action is
    essential, and two words that act alike on the essential states act
    alike on all (a transient state extends on the left to an essential
    one, as the language is extendable), so the element sets and their
    cycles are those of the actions on the essential states."""
    fns = [tuple(row.get(a, au.UNDEF) for row in x.dfa.rows) for a in x.alphabet]
    elements, rows = au.explore(tuple(range(x.dfa.n)), lambda f: [
        (k, au.compose_pfn(f, g)) for k, g in enumerate(fns)], "transition monoid")
    vars(x)[monoid_size.key] = len(elements)
    cyclic: dict[int, bool] = {}

    def has_cycle(k):
        if k not in cyclic:
            cyclic[k] = bool(_orbit_ends(elements[k])[0])
        return cyclic[k]

    sets, t = _orbit(frozenset(rows[0].values()), lambda ks: frozenset(
        p for k in ks for p in rows[k].values()), "period recurrence")
    return PeriodSet.of_orbit([any(map(has_cycle, ks)) for ks in sets], t)


def _orbit(start, step, what: str) -> tuple[list, int]:
    """``start``, ``step(start)``, ... up to the first value that repeats,
    and the index where that value first stood; each value counts against
    the work budget under ``what``."""
    seen: dict = {}
    while start not in seen:
        seen[start] = len(seen)
        check_budget(len(seen), what)
        start = step(start)
    return list(seen), seen[start]


@_per_object
def monoid_size(x: Presentation) -> int:
    """The number of elements of the syntactic monoid of the language of
    ``x``, kept by :func:`periods`, which explores it."""
    periods(x)
    return vars(x)[monoid_size.key]


def is_peric(f: BlockMap) -> v.Verdict:
    """Whether every shift-power fixed point of the source is matched in the
    target: Per(source) included in Per(target)."""
    return period_inclusion(f.source, f.target)


@_per_object
def period_inclusion(x: Presentation, y: Presentation) -> v.Verdict:
    """Per(x) included in Per(y), the period condition for a map x -> y,
    kept per pair of shifts: a NO carries the least period of x missing
    from y."""
    px = periods(x)
    bad = px.first_not_in(periods(y))
    if bad is None:
        return v.yes(certificate={"source_periods_upto": px.upto(12)})
    return v.no(witness={"period": bad})


# ---------------------------------------------------------------------------
# SFT-ness


def is_subsft_of(inner: Presentation, outer: Presentation) -> v.Verdict:
    """Whether ``inner`` equals ``outer`` intersected with an SFT.

    YES carries the minimal window; NO carries a pumpable witness family
    (u, w, v) such that the points repeating w around u w^n v stay in the
    window approximations but leave ``inner`` for arbitrarily large n.  In
    a full shift this is :func:`is_sft`.  An SFT is a subSFT of every shift
    that holds it, and every window from its own window up fits, so only
    the smaller windows are searched, and the budget stopping that search
    leaves YES with its own window.

    A window m below the length of the shortest word of ``outer`` outside
    ``inner`` cannot fit, and no smaller one can: the two shifts have the
    same words of length m, so the approximation is ``outer``.  That length
    is read off one product search, which lists no words, and the window
    search starts there.
    """
    if not inner.included_in(outer):
        raise ValidationError("is_subsft_of: inner must be contained in outer")
    if outer.is_full():
        return is_sft(inner)
    gap = au.separating_word(outer.dfa, inner.dfa)
    if inner.is_empty() or gap is None:
        return v.yes(certificate={"window": 1})
    lo = len(gap)
    bound = 2 * inner.dfa.n**2 + 2

    def first_fit(windows):
        # the first window whose approximation inside ``outer`` lies in
        # ``inner``; None when none does, 0 when the budget stops the search
        try:
            return next((m for m in windows if intersection_presentation(
                outer, sft_approximation(inner, m)).included_in(inner)), None)
        except BudgetExceeded:
            return 0

    window = _memory_window(inner)
    if window is not None:
        return v.yes(certificate={"window": first_fit(range(lo, window)) or window})
    # small windows first, then a witness search, then the remaining windows
    m = first_fit(range(lo, 5))
    if not m:
        wit = _non_subsft_witness(inner, outer)
        if wit is not None:
            return v.no(witness=wit, bound_used=bound)
        if m is None:
            m = first_fit(range(max(lo, 5), bound + 1))
    if m:
        return v.yes(certificate={"window": m})
    note = "window search exhausted without a pumpable witness"
    return v.undecided(bound_used=bound, note=note + (" (budget)" if m == 0 else ""))


@_per_object
def is_sft(x: Presentation) -> v.Verdict:
    """Whether ``x`` is a shift of finite type: YES carries the least
    window, read off the follower sets; otherwise NO carries a pumpable
    witness family, as in :func:`is_subsft_of`, or none is found."""
    window = _memory_window(x)
    if window is not None:
        return v.yes(certificate={"window": window})
    bound = 2 * x.dfa.n**2 + 2
    wit = _non_subsft_witness(x, full_shift(x.alphabet))
    if wit is not None:
        return v.no(witness=wit, bound_used=bound)
    note = "no SFT by its follower sets, but no pumpable witness found"
    return v.undecided(bound_used=bound, note=note)


def _memory_window(x: Presentation) -> int | None:
    """The least window of ``x`` as an SFT, None when it is none.

    The automaton's states are the follower sets, and X is an M-step SFT
    exactly when F(uv) = F(v) for all words v of length M or more (Lind &
    Marcus, Theorem 2.1.8).  So in the graph of pairs of distinct states
    stepped by a common symbol, the words of length M lead from the pairs
    that hold the initial state to the M-th frontier: X is an SFT when no
    cycle is reachable from them, the least M is the number of nonempty
    frontiers, and the window is M + 1.
    """
    rows, init = x.dfa.rows, x.dfa.init

    def succ(pair):
        i, j = pair
        return [(min(p, q), max(p, q)) for a, p in rows[i].items() if (q := rows[j].get(a, p)) != p]

    frontier = {(min(q, init), max(q, init)) for q in range(x.dfa.n) if q != init}
    pairs = list(au.closure(frontier, succ))
    index = {s: k for k, s in enumerate(pairs)}
    if _live_nodes(len(pairs), [(index[s], None, index[p]) for s in pairs for p in succ(s)]):
        return None
    window = 1
    while frontier:
        window += 1
        frontier = {p for s in frontier for p in succ(s)}
    return window


def _non_subsft_witness(inner: Presentation, outer: Presentation):
    """Search for (u, w, v) with: the w-tailed points around u and around v
    lie in ``inner``, and the w-tailed point around u w^n v lies in
    ``outer`` but outside ``inner`` for arbitrarily large n.

    Whether (u, v) is a witness depends only on the state sets that u
    reaches from the w-tails and on the actions of v, in both shifts.  So
    each class of u and of v is tried once, at its first word in search
    order, which is the pair that trying every pair of words would return.
    """
    n_live = inner.n_live()
    max_w = max(2, n_live)
    max_uv = n_live + 2
    shifts = (inner, outer)
    # the action of each word read so far on each shift, for every w
    memos = tuple({(): x.word_action(()), **{(a,): x.word_action((a,)) for a in inner.alphabet}}
                  for x in shifts)

    def acts(word):
        out = []
        for memo in memos:
            i = len(word)
            while word[:i] not in memo:
                i -= 1
            act = memo[word[:i]]
            for j in range(i, len(word)):
                act = memo[word[:j + 1]] = au.compose_pfn(act, memo[word[j:j + 1]])
            out.append(act)
        return tuple(out)

    def pool():
        # listed one length at a time as the search reaches it, so a
        # witness among the short words lists no longer ones
        for n in range(1, max_w + 1):
            try:
                check_budget(len(inner.alphabet) ** n, "witness word pool")
            except BudgetExceeded:
                return
            yield from inner.periodic_words(n)

    # the mid words listed and the class pairs tried, against the budget
    work = 0
    for w in pool():
        ei, fd = _tails(inner, w)
        if not ei:
            continue
        us = _ep_mid_words(inner, ei, fd, max_uv)
        work += len(us)
        if not us:
            continue
        fws = acts(w)
        tails = [_tails(x, w) for x in shifts]
        vs: dict = {}
        for vv in us:
            vs.setdefault(acts(vv), vv)
        seen = set()
        for u in us:
            starts = tuple(_image(act, e) for act, (e, _) in zip(acts(u), tails))
            if starts in seen:
                continue
            seen.add(starts)
            runs = [_orbit(s, partial(_image, f), "membership pattern")
                    for s, f in zip(starts, fws)]
            for v_acts, vv in vs.items():
                work += 1
                if work > budget():
                    return None
                # n + 1 is in a shift's pattern when v takes the states of
                # u w^n into those where w is forever defined there
                wit = _check_uv_witness(*(
                    PeriodSet.of_orbit([any(act[q] in fd for q in s) for s in sets], t)
                    for (sets, t), (_, fd), act in zip(runs, tails, v_acts)))
                if wit is not None:
                    return {"u": u, "w": w, "v": vv, **wit}
    return None


def _ep_mid_words(x: Presentation, ei: set, fd: frozenset, max_len: int):
    """Words u with the w-periodic tails around u giving a point of x."""
    out = []
    frontier = [((), frozenset(ei))]
    for _ in range(max_len + 1):
        new = []
        for word, states in frontier:
            if states & fd:
                out.append(word)
            if len(out) >= EP_MID_WORD_CAP:
                return out
            if len(word) == max_len:
                continue
            for a in x.alphabet:
                nxt = frozenset(
                    s for s in (x.estep(q, a) for q in states) if s is not None
                )
                if nxt:
                    new.append((word + (a,), nxt))
        frontier = new
        if not frontier:
            break
    return out


def _image(act, states) -> frozenset[int]:
    """The states that the partial function ``act`` takes ``states`` to."""
    return frozenset(act[q] for q in states) - {au.UNDEF}


def _check_uv_witness(inner: PeriodSet, outer: PeriodSet):
    """``n`` and ``step`` of a witness, or None, from the membership
    patterns of u w^n v in the inner and outer shift, ``n + 1`` standing
    for n.  Both are periodic past the larger threshold, with the lcm of
    their moduli as a common period, so one such period holds the least n
    that leaves ``inner`` for arbitrarily large n, if any does."""
    lo = max(inner.threshold, outer.threshold)
    step = math.lcm(inner.modulus, outer.modulus)
    n = next((n for n in range(lo, lo + step) if outer.contains(n) and not inner.contains(n)), None)
    return None if n is None else {"n": n - 1, "step": step}


# ---------------------------------------------------------------------------
# Surjectivity, injectivity family, preinjectivity, resolvingness


@_per_object
def surjectivity(f: BlockMap) -> v.Verdict:
    """Whether ``f`` is onto its target: epic in all twelve categories.

    No image is built.  An endomorphism of a transitive SFT is onto exactly
    when it is preinjective: the Garden-of-Eden theorem (Moore 1962, Myhill
    1963), for irreducible SFTs in Lind & Marcus, Section 8.1.  So there a
    YES of ``is_preinjective`` is a YES.  Otherwise ``automata.missing_word``
    searches the target automaton against the image graph: NO carries the
    shortlex-least target word outside the image, and a search that finds
    none is a YES.
    """
    x = f.source
    if (x.language_equal(f.target) and is_transitive(x) and is_sft(x).yes
            and is_preinjective(f).yes):
        return v.yes(note="Garden of Eden: a preinjective endomorphism of a transitive SFT is onto")
    g = image_graph(x, f.radius, f.rule_dict, f.target.alphabet)
    word = au.missing_word(f.target.dfa, partial(au._subset_step, g.trans), g.initial, g.accepting)
    return v.yes() if word is None else v.no(witness={"word": word})


@record
class InjectivityFamily:
    """Injectivity on all points, on periodic points and on uniform points.
    Where one fails, ``pair``, ``periodic_pair`` or ``uniform_pair`` holds
    two distinct points with equal images, eventually periodic, periodic
    or uniform; equality sees none of them."""

    injective: bool
    injective_on_periodic: bool
    injective_on_uniform: bool
    pair: tuple | None = uncompared(None)
    periodic_pair: tuple | None = uncompared(None)
    uniform_pair: tuple | None = uncompared(None)


@record
class _DiagonalView:
    """How the kernel graph of a map sits against the diagonal.

    The kernel graph is ``core.fiber_graph(f, f)`` trimmed to its nodes on
    bi-infinite paths, in product order.  ``out[q]`` lists the edges
    ``(token, node)`` out of node ``q`` in edge order; several may carry
    the same token.  ``succ[q]`` lists their end nodes, ``into[p]`` the
    edges ``(token, node)`` into ``p`` back to their start nodes, and
    ``pred[p]`` those start nodes, in node order and then in edge order,
    and ``off_edges`` every edge ``(q, t, p)`` off the diagonal, ``t[0] !=
    t[1]``, in node order and then in edge order.  ``backward`` holds the
    nodes with an infinite diagonal past (reachable from a diagonal cycle
    along diagonal edges), ``forward`` those with an infinite diagonal
    future.
    """

    out: tuple[tuple[tuple[str, int], ...], ...]
    succ: list[list[int]]
    pred: list[list[int]]
    into: list[list[tuple[str, int]]]
    off_edges: tuple[tuple[int, str, int], ...]
    backward: frozenset[int]
    forward: frozenset[int]


@_per_object
def _diagonal_view(f: BlockMap) -> _DiagonalView:
    """The diagonal structure of the kernel graph, once per map: the pass
    that pairs the window edges fills the product, two peels trim it, and
    one pass over the live nodes renumbers it."""
    n, _, labelled, _ = _fiber_sides(f, f)
    toks, ends, starts = ([[] for _ in range(n * n)] for _ in range(3))
    for q, row, p in _matched_rows(labelled, labelled, n, pair_symbol):
        for k, t, j in row:
            k += q
            j += p
            toks[k].append(t)
            ends[k].append(j)
            starts[j].append(k)
    live = sorted(_infinite_past(ends, starts) & _infinite_past(starts, ends))
    index = dict(zip(live, range(len(live))))
    out, off_edges = [], []
    succ, pred, into, dsucc, dpred = ([[] for _ in live] for _ in range(5))
    for q, old in enumerate(live):
        row = []
        for t, p in zip(toks[old], ends[old]):
            if p in index:
                p = index[p]
                row.append((t, p))
                succ[q].append(p)
                pred[p].append(q)
                into[p].append((t, q))
                if t[0] != t[1]:
                    off_edges.append((q, t, p))
                else:
                    dsucc[q].append(p)
                    dpred[p].append(q)
        out.append(tuple(row))
    return _DiagonalView(tuple(out), succ, pred, into, tuple(off_edges),
                         _infinite_past(dsucc, dpred), _infinite_past(dpred, dsucc))


@_per_object
def off_diagonal_components(f: BlockMap) -> tuple[tuple[tuple, tuple[int, ...], int], ...]:
    """The strongly connected components of the kernel graph with an
    off-diagonal edge inside them, in the order of their first such edge
    in ``off_edges``: that edge ``(q, token, p)``, the nodes of the
    component and its graph period.  One SCC pass per map, made only when
    some edge is off the diagonal; injectivity on periodic points and
    monicness in M2 and M3 read it."""
    view = _diagonal_view(f)
    if not view.off_edges:
        return ()
    sccs = au.strongly_connected_components(range(len(view.out)), view.succ.__getitem__)
    comp = [0] * len(view.out)
    for k, (c, _) in enumerate(sccs):
        for q in c:
            comp[q] = k
    out: dict[int, tuple[tuple, tuple[int, ...], int]] = {}
    for q, t, p in view.off_edges:
        k = comp[q]
        if k == comp[p] and k not in out:
            nodes, period = sccs[k]
            out[k] = ((q, t, p), tuple(nodes), period)
    return tuple(out.values())


def _cycle_through(view: _DiagonalView, edge: tuple[int, str, int]) -> Word:
    """The tokens of a shortest cycle that starts with ``edge``: the edge,
    then a shortest path from its end back to its start."""
    q, t, p = edge
    back, _ = _bfs_path(p, view.out.__getitem__, q.__eq__)
    return (t, *back)


def mixing_petals(f: BlockMap) -> tuple[Word, Word] | None:
    """Two closed walks ``(w1, w2)`` of the kernel graph from one node,
    of coprime lengths, the first starting with an off-diagonal edge; None
    when every component with an off-diagonal edge inside it has graph
    period 2 or more.

    The edge is the first of the first component of period 1, ``w1`` a
    shortest cycle through it and ``w2`` a shortest closed walk from its
    start whose length is coprime to ``len(w1)``, found by a breadth-first
    search over pairs (node, length mod ``len(w1)``); period 1 makes such
    lengths occur.  The flower graph with petals ``w1`` and ``w2`` is then
    an irreducible graph of period 1, so its edge shift is a mixing SFT,
    and its two coordinate projections are distinct maps into the source
    that ``f`` makes equal.
    """
    for edge, _, period in off_diagonal_components(f):
        if period == 1:
            view = _diagonal_view(f)
            w1 = _cycle_through(view, edge)
            q, n = edge[0], len(w1)
            # lengths mod n are kept as 1..n, so the start (q, 0) stops nothing
            w2, _ = _bfs_path(
                (q, 0), lambda s: [(t, (p, s[1] % n + 1)) for t, p in view.out[s[0]]],
                lambda s: s[0] == q and s[1] > 0 and math.gcd(s[1], n) == 1)
            return w1, w2
    return None


@_per_object
def injectivity_family(f: BlockMap) -> InjectivityFamily:
    """Decided on the kernel graph: ``f`` is injective when no edge is off
    the diagonal, and injective on periodic points when no off-diagonal
    edge lies inside a strongly connected component, that is on a cycle.
    The NO pair is read off the first off-diagonal edge, and the periodic
    NO pair off a shortest cycle through the first one inside a
    component."""
    view = _diagonal_view(f)
    inj = not view.off_edges
    pair = None if inj else _pair_witness(view, *view.off_edges[0], diamond=False)
    comps = off_diagonal_components(f)
    periodic_pair = None
    if comps:
        cycle = _cycle_through(view, comps[0][0])
        periodic_pair = tuple(map(PeriodicPoint, zip(*cycle)))
    uniform_pair, images = None, {}
    for a in f.source.uniform_points():
        b = images.setdefault(image_word(f, (a,)), a)
        if b != a:
            uniform_pair = (PeriodicPoint((b,)), PeriodicPoint((a,)))
            break
    return InjectivityFamily(inj, not comps, not uniform_pair, pair, periodic_pair, uniform_pair)


@_per_object
def is_preinjective(f: BlockMap) -> v.Verdict:
    """No two distinct finitely-differing points share an image.

    Decided on the kernel graph: a violation, a diamond, is a path from an
    infinite diagonal past through an off-diagonal edge to an infinite
    diagonal future, and the NO witness is read off one.

    On a transitive SFT source a YES notes that the diagonal Δ is a
    constituent of Ker f, which preinjectivity implies, so no constituent
    is computed.  Ker f is an SFT, since the source is one.  If a transitive
    Z satisfied Δ ⊊ Z ⊆ Ker f, a word of Z with an off-diagonal symbol,
    joined inside Z to long diagonal words on either side, could be glued
    onto diagonal rays: a diamond.  So the SCC subshift holding Δ is Δ,
    and no SCC subshift holds more.  On the empty source Δ is empty and is
    no constituent.
    """
    view = _diagonal_view(f)
    reach = au.closure(view.backward, view.succ.__getitem__)
    coreach = au.closure(view.forward, view.pred.__getitem__)
    for i, t, j in view.off_edges:
        if i in reach and j in coreach:
            return v.no(witness={"pair": _pair_witness(view, i, t, j, diamond=True)})
    note = None
    x = f.source
    if is_transitive(x) and is_sft(x).yes:
        note = f"diagonal is a constituent: {not x.is_empty()}"
    return v.yes(note=note)


def _bfs_path(start: int, succ, stop) -> tuple[Word, int]:
    """The token word of a shortest path from ``start`` along the ``(token,
    node)`` edges ``succ(q)``, searched in order, to the first node for
    which ``stop`` holds, ``start`` included; and that node."""
    if stop(start):
        return (), start
    word, end = au.first_word([start], succ, stop, None)
    if word is None:
        raise InternalError("witness search found no path to a stopping node")
    return word, end


def _walk_to_cycle(q: int, step) -> tuple[Word, Word]:
    """Follow the ``(token, node)`` edge ``step(q)`` from ``q`` until a
    node repeats: the tokens up to the first node of the cycle so closed,
    and the tokens of the cycle.  The walk is no longer than the kernel
    graph, whose size the fiber product has charged."""
    nodes, t = _orbit(q, lambda q: step(q)[1], "witness walk")
    tokens = tuple(step(q)[0] for q in nodes)
    return tokens[:t], tokens[t:]


def _pair_witness(view: _DiagonalView, i: int, tok: str, j: int, diamond: bool):
    """Two distinct eventually periodic points with equal images, read off
    a bi-infinite path of the kernel graph through the off-diagonal edge
    ``(i, tok, j)``.

    Left of the edge: a shortest path back from ``i`` to a node with the
    wanted past, then a walk back along edges that come from such nodes
    until a node repeats and closes a cycle; right of it, the same
    forward.  For a
    diamond the wanted past and future are the infinite diagonal ones,
    which ``i`` and ``j`` reach, and the walks take diagonal edges, so the
    points differ at finitely many places.  Otherwise every node of the
    graph has an infinite past and future, and the walks take any edge.
    """
    n, into = len(view.out), view.into
    past, future = (view.backward, view.forward) if diamond else (range(n), range(n))

    def kept(t):
        return t[0] == t[1] or not diamond

    back, b = _bfs_path(i, into.__getitem__, past.__contains__)
    lead, cycle = _walk_to_cycle(b, lambda q: next(
        (t, p) for t, p in into[q] if p in past and kept(t)))
    ahead, e = _bfs_path(j, view.out.__getitem__, future.__contains__)
    trail, cycle2 = _walk_to_cycle(e, lambda q: next(
        (t, p) for t, p in view.out[q] if p in future and kept(t)))
    words = (cycle[::-1], lead[::-1] + back[::-1] + (tok,) + ahead + trail, cycle2)
    # each word of pairs unzips into the words of the two points
    return tuple(EventuallyPeriodicPoint(*ws) for ws in zip(*(zip(*w) for w in words)))


@record
class Resolvingness:
    right_resolving: bool
    left_resolving: bool


def resolvingness(f: BlockMap) -> Resolvingness:
    """Read off the kernel graph: no off-diagonal edge leaves a node with an
    infinite diagonal past (right), or enters one with an infinite diagonal
    future (left)."""
    view = _diagonal_view(f)
    return Resolvingness(not any(i in view.backward for i, _, _ in view.off_edges),
                         not any(j in view.forward for _, _, j in view.off_edges))


# ---------------------------------------------------------------------------
# Finiteness and countability


def is_countable(x: Presentation) -> bool:
    """Countably many points: every SCC with an internal edge is a simple cycle."""
    for comp, _ in cycle_components(x):
        cs = set(comp)
        if any(sum(j in cs for j in x.live_trans[i].values()) != 1 for i in comp):
            return False
    return True


def is_finite(x: Presentation) -> bool:
    """Finitely many points: the shift is countable and equals the union of
    its cycle orbits."""
    if not is_countable(x):
        return False
    orbits = [s for _, s in cycle_components(x)]
    return x.is_empty() or x.included_in(reduce(union_presentation, orbits))
