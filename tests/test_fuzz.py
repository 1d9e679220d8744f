"""Randomized cross-checks of the canonicalization layer.

Random labeled graphs are canonicalized and their derived data compared
against definition-level recomputation: language stability, mirror
involution, periodic membership, product/union identities, the
essential-state trim, the fiber product of block maps, structural language
equality, the shift period, and transitivity, mixing and constituents.
The constructions built on ``automata.explore`` and ``automata.closure``, the
section search's constraint solver, the surjectivity verdict and the
many-sided difference product are checked against the loops they replaced.
"""

import math
from collections import deque

from hypothesis import example, given, settings, strategies as st

from sdcat import analysis as an
from sdcat import automata as au
from sdcat.core import (
    PeriodicPoint,
    _cast_alphabet,
    _peel,
    center_of,
    empty_shift,
    fiber_presentation,
    full_shift,
    make_block_map,
    make_presentation,
    mirror_presentation,
    pair_symbol,
    presentation_from_edges,
    presentation_from_nfa,
    product_alphabet,
    product_presentation,
    window_graph,
)
from sdcat.automata import Nfa


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    syms = ("0", "1")
    edges = []
    for src in range(n):
        for sym in syms:
            dsts = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 max_size=2, unique=True))
            for d in dsts:
                edges.append((src, sym, d))
    return n, edges


def _brute_periodic(x, word, reps=None):
    """Two-sided repetition membership from language data only."""
    reps = reps if reps is not None else x.n_live() + 2
    return x.contains_word(word * reps)


class TestCanonicalization:
    @given(random_graphs())
    @settings(max_examples=120, deadline=None)
    def test_canonical_form_is_stable(self, graph):
        n, edges = graph
        nfa = Nfa(("0", "1"), n, edges, range(n), range(n))
        x = presentation_from_nfa(("0", "1"), nfa)
        named = [(f"v{a}", f"v{b}", s) for a, s, b in
                 [(i, sym, j) for i in range(x.n_live())
                  for sym, j in x.live_trans[i].items()]]
        again = make_presentation(
            ("0", "1"), "graph", ([f"v{i}" for i in range(x.n_live())], named)
        )
        assert again.language_equal(x)
        assert again.dfa == x.dfa

    @given(random_graphs())
    @settings(max_examples=120, deadline=None)
    def test_mirror_involution(self, graph):
        n, edges = graph
        nfa = Nfa(("0", "1"), n, edges, range(n), range(n))
        x = presentation_from_nfa(("0", "1"), nfa)
        assert mirror_presentation(mirror_presentation(x)).language_equal(x)

    @given(random_graphs(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_periodic_membership_matches_word_pumping(self, graph, length):
        n, edges = graph
        nfa = Nfa(("0", "1"), n, edges, range(n), range(n))
        x = presentation_from_nfa(("0", "1"), nfa)
        if x.is_empty():
            return
        for word in x.words(length):
            expected = _brute_periodic(x, word)
            assert x.contains_periodic(word) == expected
            if expected:
                assert PeriodicPoint(word).in_shift(x)

    @given(random_graphs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_period_set_matches_membership(self, graph, n_query):
        n, edges = graph
        nfa = Nfa(("0", "1"), n, edges, range(n), range(n))
        x = presentation_from_nfa(("0", "1"), nfa)
        ps = an.periods(x)
        brute = any(_brute_periodic(x, w) for w in x.words(n_query)) if not x.is_empty() else False
        assert ps.contains(n_query) == brute

    @given(random_graphs(), random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_product_words_are_pairs(self, g1, g2):
        n1, e1 = g1
        n2, e2 = g2
        x = presentation_from_nfa(("0", "1"), Nfa(("0", "1"), n1, e1, range(n1), range(n1)))
        y = presentation_from_nfa(("0", "1"), Nfa(("0", "1"), n2, e2, range(n2), range(n2)))
        p = product_presentation(x, y)
        for k in (1, 2, 3):
            want = len(x.words(k)) * len(y.words(k))
            assert p.count_words(k) == want

    @given(random_graphs(), random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_union_language_is_setwise(self, g1, g2):
        n1, e1 = g1
        n2, e2 = g2
        x = presentation_from_nfa(("0", "1"), Nfa(("0", "1"), n1, e1, range(n1), range(n1)))
        y = presentation_from_nfa(("0", "1"), Nfa(("0", "1"), n2, e2, range(n2), range(n2)))
        u = an.union_presentation(x, y)
        i = an.intersection_presentation(x, y)
        for k in (1, 2, 3):
            assert set(u.words(k)) == set(x.words(k)) | set(y.words(k))
            assert set(i.words(k)) <= set(x.words(k)) & set(y.words(k))

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_constituent_union_covers_periodics(self, graph):
        n, edges = graph
        nfa = Nfa(("0", "1"), n, edges, range(n), range(n))
        x = presentation_from_nfa(("0", "1"), nfa)
        consts = an.constituents(x)
        for c in consts:
            assert c.included_in(x)
        for length in (1, 2, 3):
            for w in x.words(length):
                if x.contains_periodic(w):
                    assert any(c.contains_periodic(w) for c in consts)


# ---------------------------------------------------------------------------
# Essential-state trim


@st.composite
def plain_graphs(draw):
    """Unlabeled graphs with self-loops, parallel edges and isolated nodes."""
    n = draw(st.integers(min_value=0, max_value=7))
    if n == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=14))


def _fixed_point_trim(n, succs, preds):
    """Reference: sweep until no state lacks a live successor or predecessor."""
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for q in list(alive):
            if not any(p in alive for p in succs[q]) or not any(
                p in alive for p in preds[q]
            ):
                alive.discard(q)
                changed = True
    return alive


class TestPeel:
    @given(plain_graphs())
    @settings(max_examples=300, deadline=None)
    def test_peel_is_the_greatest_fixed_point(self, graph):
        n, edges = graph
        succs = [[] for _ in range(n)]
        preds = [[] for _ in range(n)]
        for q, p in edges:
            succs[q].append(p)
            preds[p].append(q)
        assert _peel(n, succs, preds) == _fixed_point_trim(n, succs, preds)

    def test_peel_keeps_a_lone_self_loop_and_drops_its_tail(self):
        # 0 -> 0, 0 -> 1, 2 isolated
        assert _peel(3, [[0, 1], [], []], [[0], [0], []]) == {0}


# ---------------------------------------------------------------------------
# Fiber product


FULL2 = full_shift(("0", "1"))


@st.composite
def binary_maps(draw):
    """A radius-0 or radius-1 map from a random sofic shift into the full
    2-shift; the source may be empty."""
    n, edges = draw(random_graphs())
    x = presentation_from_nfa(("0", "1"), Nfa(("0", "1"), n, edges, range(n), range(n)))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        x = empty_shift(("0", "1"))
    radius = draw(st.integers(min_value=0, max_value=1))
    windows = x.words(2 * radius + 1)
    outs = draw(st.lists(st.sampled_from("01"), min_size=len(windows), max_size=len(windows)))
    return make_block_map(x, FULL2, radius, dict(zip(windows, outs)))


def _pairwise_fiber(f, g):
    """Reference: every pair of window edges with equal outputs."""
    x, y = f.source, g.source
    alphabet = product_alphabet(x.alphabet, y.alphabet)
    r = max(f.radius, g.radius)
    fr, gr = f.padded_rule(r), g.padded_rule(r)
    nodes1, trans1 = window_graph(x, 2 * r + 1)
    nodes2, trans2 = window_graph(y, 2 * r + 1)
    n1, n2 = len(nodes1), len(nodes2)
    edges = []
    for k1 in range(n1):
        for w1, t1 in trans1[k1].items():
            for k2 in range(n2):
                for w2, t2 in trans2[k2].items():
                    if fr[w1] == gr[w2]:
                        edges.append(
                            (k1 * n2 + k2, pair_symbol(center_of(w1), center_of(w2)), t1 * n2 + t2)
                        )
    n = max(1, n1 * n2)
    return presentation_from_nfa(alphabet, Nfa(alphabet, n, edges, range(n), range(n)))


class TestFiberProduct:
    @given(binary_maps(), binary_maps())
    @settings(max_examples=80, deadline=None)
    def test_fiber_matches_pairwise_loop(self, f, g):
        got = fiber_presentation(f, g)
        assert got.alphabet == product_alphabet(f.source.alphabet, g.source.alphabet)
        assert got.language_equal(_pairwise_fiber(f, g))

    @given(binary_maps())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_pairwise_loop(self, f):
        assert f.kernel.language_equal(_pairwise_fiber(f, f))
        assert an.kernel_set(f).presentation is f.kernel

    def test_fiber_with_an_empty_source_is_empty(self):
        full = make_block_map(FULL2, FULL2, 0, {("0",): "1", ("1",): "0"})
        none = make_block_map(empty_shift(("0", "1")), FULL2, 0, {})
        assert fiber_presentation(full, none).is_empty()
        assert fiber_presentation(none, full).is_empty()
        assert none.kernel.is_empty()


# ---------------------------------------------------------------------------
# Structural language equality


@st.composite
def forbidden_lists(draw):
    word = st.lists(st.sampled_from("01"), min_size=1, max_size=3).map(tuple)
    return draw(st.lists(word, max_size=3))


def _graph_form(x, alphabet):
    """``x`` rebuilt from its essential graph, with the symbols in the given order."""
    nodes = [f"v{i}" for i in range(x.n_live())]
    edges = [(f"v{i}", f"v{j}", a) for i in range(x.n_live()) for a, j in x.live_trans[i].items()]
    return make_presentation(alphabet, "graph", (nodes, edges))


def _mutually_included(x, y):
    union = tuple(sorted(set(x.alphabet) | set(y.alphabet)))
    a, b = _cast_alphabet(x, union).dfa, _cast_alphabet(y, union).dfa
    return au.included(a, b) and au.included(b, a)


class TestStructuralEquality:
    @given(random_graphs(), random_graphs(), forbidden_lists())
    @settings(max_examples=150, deadline=None)
    def test_structural_equality_is_mutual_inclusion(self, g1, g2, forbidden):
        x = presentation_from_edges(("0", "1"), *g1)
        y = presentation_from_edges(("0", "1"), *g2)
        sft = make_presentation(("0", "1"), "sft", forbidden)
        same = [
            (sft, _graph_form(sft, ("0", "1"))),
            (x, mirror_presentation(mirror_presentation(x))),
            (x, _graph_form(x, ("1", "0"))),
        ]
        for p, q in same:
            assert p.language_equal(q)
            assert _mutually_included(p, q)
        for p, q in [(x, y), (x, sft), (y, sft)]:
            assert p.language_equal(q) == _mutually_included(p, q)


# ---------------------------------------------------------------------------
# Shift period


def _moore_period(x, comp):
    """Reference: Moore refinement on one SCC, missing edges in class -1,
    then the period of the quotient graph."""
    cs = set(comp)
    idx = {q: i for i, q in enumerate(comp)}
    trans = [{a: idx[p] for a, p in x.live_trans[q].items() if p in cs} for q in comp]
    syms = sorted(x.alphabet)
    cls = [1] * len(comp)
    while True:
        sigs: dict = {}
        new = [0] * len(comp)
        for i in range(len(comp)):
            sig = (cls[i], tuple(cls[trans[i][a]] if a in trans[i] else -1 for a in syms))
            new[i] = sigs.setdefault(sig, len(sigs) + 1)
        if len(set(new)) == len(set(cls)):
            cls = new
            break
        cls = new
    classes = sorted(set(cls))
    pos = {c: i for i, c in enumerate(classes)}
    out: list[dict[str, int]] = [{} for _ in classes]
    for i in range(len(comp)):
        for a, j in trans[i].items():
            out[pos[cls[i]]][a] = pos[cls[j]]
    return au.graph_period(range(len(classes)), lambda i: out[i].values())


class TestShiftPeriod:
    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_period_matches_moore_refinement(self, graph):
        x = presentation_from_edges(("0", "1"), *graph)
        for c in an.constituents(x):
            comp = next(comp for comp, s in an.cycle_components(c) if s.language_equal(c))
            assert an.shift_period(c) == _moore_period(c, comp)

    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_kept_period_matches_a_fresh_copy(self, graph):
        x = presentation_from_edges(("0", "1"), *graph)
        for _, sub in an.cycle_components(x):
            kept = vars(sub)[an.shift_period.key]
            fresh = _graph_form(sub, sub.alphabet)
            comps, _ = _reference_components(fresh)
            comp = next(c for c in comps if an.scc_subshift(fresh, c).language_equal(fresh))
            assert kept == _moore_period(fresh, comp)

    def test_orbit_of_three_has_period_three(self):
        x = make_presentation(("0", "1"), "graph", ([0, 1, 2], [(0, 1, "0"), (1, 2, "0"), (2, 0, "1")]))
        assert an.shift_period(x) == 3


# ---------------------------------------------------------------------------
# Transitivity, mixing and constituents


def _reference_components(x):
    """Reference: the SCCs with an internal edge, and the inclusion-maximal
    SCC subshifts (the constituents)."""
    def succ(i):
        return x.live_trans[i].values()

    comps = [
        comp for comp in au.strongly_connected_components(range(x.n_live()), succ)
        if any(j in comp for i in comp for j in succ(i))
    ]
    consts = []
    for s in (an.scc_subshift(x, comp) for comp in comps):
        if any(s.included_in(t) for t in consts):
            continue
        consts = [t for t in consts if not t.included_in(s)] + [s]
    return comps, consts


class TestComponents:
    @given(random_graphs())
    @example((1, []))
    @example((2, [(0, "0", 0), (0, "1", 1), (1, "1", 1)]))
    @settings(max_examples=150, deadline=None)
    def test_facts_match_constituent_definitions(self, graph):
        x = presentation_from_edges(("0", "1"), *graph)
        comps, consts = _reference_components(x)
        transitive = x.is_empty() or any(c.language_equal(x) for c in consts)
        mixing = x.is_empty()
        if transitive and not mixing:
            comp = next(comp for comp in comps if an.scc_subshift(x, comp).language_equal(x))
            mixing = _moore_period(x, comp) == 1
        assert list(an.constituents(x)) == consts
        assert an.is_transitive(x) == transitive
        assert an.is_mixing(x) == mixing


# ---------------------------------------------------------------------------
# One explorer, one closure: the constructions against their former loops


def _old_determinize(nfa):
    """Reference: the subset construction as its own breadth-first loop."""
    start = frozenset(nfa.initial)
    index = {start: 0}
    trans_dicts = [{}]
    acc = {0} if start & nfa.accepting else set()
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        qi = index[subset]
        succs = {}
        for q in subset:
            for sym, dsts in nfa.trans[q].items():
                succs.setdefault(sym, set()).update(dsts)
        for sym, dsts in succs.items():
            tgt = frozenset(dsts)
            if tgt not in index:
                index[tgt] = len(trans_dicts)
                trans_dicts.append({})
                if tgt & nfa.accepting:
                    acc.add(index[tgt])
                queue.append(tgt)
            trans_dicts[qi][sym] = index[tgt]
    return au.make_dfa(nfa.alphabet, trans_dicts, 0, acc)


def _old_minimize(dfa):
    """Reference: forward and backward trims, Moore refinement, then a
    breadth-first renumbering of the classes, each its own loop."""
    reach, queue = [dfa.init], deque([dfa.init])
    while queue:
        for _, p in dfa.trans[queue.popleft()]:
            if p not in reach:
                reach.append(p)
                queue.append(p)
    rev = [[] for _ in range(dfa.n)]
    for q in range(dfa.n):
        for _, p in dfa.trans[q]:
            rev[p].append(q)
    live, queue = set(dfa.accepting), deque(dfa.accepting)
    while queue:
        for p in rev[queue.popleft()]:
            if p not in live:
                live.add(p)
                queue.append(p)
    keep = [q for q in reach if q in live]
    if not keep:
        return au.make_dfa(dfa.alphabet, [{}], 0, [])
    remap = {q: i for i, q in enumerate(keep)}
    trans = [{a: remap[p] for a, p in dfa.trans[q] if p in live} for q in keep]
    acc = {remap[q] for q in keep if q in dfa.accepting}
    n = len(keep)
    cls = [1 if q in acc else 2 for q in range(n)]
    syms = sorted(set(dfa.alphabet))
    while True:
        sigs = {}
        new_cls = [sigs.setdefault(
            (cls[q], tuple(cls[trans[q][a]] if a in trans[q] else 0 for a in syms)), len(sigs) + 1
        ) for q in range(n)]
        done = len(set(new_cls)) == len(set(cls))
        cls = new_cls
        if done:
            break
    reps = {}
    for q in range(n):
        reps.setdefault(cls[q], q)
    init_c = cls[remap[dfa.init]]
    order, queue = [init_c], deque([init_c])
    while queue:
        q = reps[queue.popleft()]
        for a in syms:
            if a in trans[q] and cls[trans[q][a]] not in order:
                order.append(cls[trans[q][a]])
                queue.append(cls[trans[q][a]])
    pos = {c: i for i, c in enumerate(order)}
    out = [{a: pos[cls[p]] for a, p in trans[reps[c]].items()} for c in order]
    return au.make_dfa(dfa.alphabet, out, 0, {pos[c] for c in order if reps[c] in acc})


def _old_product(a, b):
    """Reference: the difference product stepping both automata by
    ``Dfa.step`` over ``a``'s alphabet."""
    start = (a.init, b.init)
    index = {start: 0}
    trans_dicts = [{}]
    pairs = [start]
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        x, y = pair
        for sym in a.alphabet:
            nx = a.step(x, sym)
            if nx is None:
                continue
            ny = b.step(y, sym) if y != -1 else None
            tgt = (nx, -1 if ny is None else ny)
            if tgt not in index:
                index[tgt] = len(trans_dicts)
                trans_dicts.append({})
                pairs.append(tgt)
                queue.append(tgt)
            trans_dicts[index[pair]][sym] = index[tgt]
    acc = {i for i, (x, y) in enumerate(pairs) if x in a.accepting and y not in b.accepting}
    return au.make_dfa(a.alphabet, trans_dicts, 0, acc)


def _old_monoid(alphabet, n_states, sym_functions):
    """Reference: generators first, then a breadth-first loop over products."""
    ident = tuple(range(n_states))
    elems, order, gens, queue = {ident: 0}, [ident], [], deque()
    for a in alphabet:
        f = sym_functions[a]
        if f not in elems:
            elems[f] = len(order)
            order.append(f)
            queue.append(f)
        gens.append((a, elems[f]))
    while queue:
        f = queue.popleft()
        for a in alphabet:
            h = tuple(sym_functions[a][f[q]] for q in range(n_states))
            if h not in elems:
                elems[h] = len(order)
                order.append(h)
                queue.append(h)
    table = tuple(tuple(elems[tuple(g[f[q]] for q in range(n_states))] for g in order)
                  for f in order)
    size = len(order)
    zero = next((i for i in range(size)
                 if all(table[i][j] == i and table[j][i] == i for j in range(size))), None)
    return au.FiniteMonoid(size, table, 0, tuple(gens), zero)


def _naive_closure(seeds, succ, n):
    """Reference: add successors until a sweep over all states adds none."""
    out = set(seeds)
    changed = True
    while changed:
        changed = False
        for q in range(n):
            if q in out and not set(succ(q)) <= out:
                out |= set(succ(q))
                changed = True
    return out


@st.composite
def random_nfas(draw):
    """NFAs on up to four states, the stateless one included, with
    arbitrary initial and accepting sets."""
    n = draw(st.integers(min_value=0, max_value=4))
    states = st.sets(st.integers(min_value=0, max_value=n - 1)) if n else st.just(set())
    edges = [(q, sym, p) for q in range(n) for sym in "01" for p in draw(states)]
    return Nfa(("0", "1"), n, edges, draw(states), draw(states))


@st.composite
def random_dfas(draw, alphabet=("0", "1")):
    """Partial DFAs on one to four states, empty languages included."""
    n = draw(st.integers(min_value=1, max_value=4))
    state = st.integers(min_value=0, max_value=n - 1)
    rows = []
    for _ in range(n):
        targets = [draw(st.none() | state) for _ in alphabet]
        rows.append({a: p for a, p in zip(alphabet, targets) if p is not None})
    return au.make_dfa(alphabet, rows, draw(state), draw(st.sets(state)))


class TestExploreAndClosure:
    @given(random_nfas())
    @example(Nfa(("0", "1"), 0, [], [], []))
    @example(Nfa(("0", "1"), 1, [(0, "0", 0)], [0], [0]))
    @settings(max_examples=200, deadline=None)
    def test_determinize_matches_the_subset_loop(self, nfa):
        got, ref = au.determinize(nfa), _old_determinize(nfa)
        assert got.n == ref.n
        assert got == ref  # the same numbering, so the same language

    @given(random_dfas() | random_nfas().map(au.determinize))
    @settings(max_examples=300, deadline=None)
    def test_minimize_is_structurally_the_old_minimize(self, dfa):
        assert au.minimize(dfa) == _old_minimize(dfa)

    @given(random_dfas(), st.sampled_from([("0", "1"), ("1", "0")]).flatmap(random_dfas))
    @settings(max_examples=300, deadline=None)
    def test_product_matches_the_stepping_loop(self, a, b):
        got, ref = au.product_dfa(a, b), _old_product(a, b)
        assert got.n == ref.n
        assert au.shortest_accepted(got) == au.shortest_accepted(ref)
        assert au.included(a, b) == au.is_empty_language(ref)

    @given(st.integers(min_value=1, max_value=3).flatmap(lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n).map(tuple),
        min_size=1, max_size=3)))
    @example([(0,)])
    @settings(max_examples=150, deadline=None)
    def test_monoid_matches_the_generator_loop(self, fns):
        alphabet = [str(i) for i in range(len(fns))]
        sym_functions = dict(zip(alphabet, fns))
        got = au.monoid_from_functions(alphabet, len(fns[0]), sym_functions)
        assert got == _old_monoid(alphabet, len(fns[0]), sym_functions)

    @given(plain_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closure_is_the_naive_fixpoint(self, graph, data):
        n, edges = graph
        succs = [[p for q2, p in edges if q2 == q] for q in range(n)]
        seeds = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)) if n else st.just(set()))
        assert au.closure(seeds, succs.__getitem__) == _naive_closure(seeds, succs.__getitem__, n)


def _old_csp_solutions(variables, domains, pair_ok, limit):
    """Reference: each new value is tested against every assigned variable."""
    order = sorted(range(len(variables)), key=lambda i: len(domains[i]))
    assign = {}
    produced = 0

    def rec(k):
        nonlocal produced
        if produced >= limit:
            return
        if k == len(order):
            produced += 1
            yield dict(assign)
            return
        i = order[k]
        for val in domains[i]:
            if all(pair_ok(i, val, j, w) for j, w in assign.items()):
                assign[i] = val
                yield from rec(k + 1)
                del assign[i]
                if produced >= limit:
                    return

    yield from rec(0)


@st.composite
def csp_instances(draw):
    """Domains over three values, follow graphs with self-loops and
    2-cycles, an allowed-pair relation and a solution limit."""
    n = draw(st.integers(min_value=0, max_value=5))
    var = st.integers(min_value=0, max_value=max(0, n - 1))
    val = st.sampled_from("abc")
    domains = [tuple(draw(st.lists(val, max_size=3, unique=True))) for _ in range(n)]
    follows = draw(st.lists(st.tuples(var, var), max_size=10)) if n else []
    allowed = draw(st.sets(st.tuples(val, val)))
    return domains, follows, allowed, draw(st.integers(min_value=1, max_value=20))


class TestCspSolutions:
    @given(csp_instances())
    @example(([("a", "b"), ("a", "b")], [(0, 0), (0, 1), (1, 0)], {("a", "b"), ("b", "a")}, 5))
    @settings(max_examples=300, deadline=None)
    def test_neighbour_checks_match_the_all_pairs_search(self, instance):
        from sdcat.classify import _csp_solutions

        domains, follows, allowed, limit = instance
        follow_set = set(follows)

        def pair_ok(i, vi, j, vj):
            if (i, j) in follow_set and (vi, vj) not in allowed:
                return False
            return (j, i) not in follow_set or (vj, vi) in allowed

        got = _csp_solutions(domains, follows, allowed, limit)
        ref = _old_csp_solutions(domains, domains, pair_ok, limit)
        # items, not dicts: the assignment order is part of the answer
        assert [list(sol.items()) for sol in got] == [list(sol.items()) for sol in ref]


# ---------------------------------------------------------------------------
# Surjectivity and the many-sided difference product


def _old_surjectivity_word(f):
    """Reference: the shortest target word outside the image, from the
    difference product of target and image (``separating_word(target,
    image)``)."""
    return au.shortest_accepted(_old_product(f.target.dfa, f.image.dfa))


@st.composite
def sofic_maps(draw):
    """A map between random sofic shifts: the target is the image, or the
    image joined with a second random shift."""
    f = draw(binary_maps())
    target = f.image
    if draw(st.booleans()):
        target = an.union_presentation(target, presentation_from_edges(("0", "1"), *draw(random_graphs())))
    return make_block_map(f.source, target, f.radius, f.rule_dict)


class TestSurjectivity:
    def _check(self, f):
        got, ref = an.surjectivity(f), _old_surjectivity_word(f)
        assert got.yes == (ref is None) and got.no == (ref is not None)
        assert got.witness == (None if ref is None else {"word": ref})

    @given(binary_maps() | sofic_maps())
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_the_difference_product(self, f):
        self._check(f)

    def test_census_maps_match_the_difference_product(self):
        windows = FULL2.words(3)
        for bits in range(256):
            self._check(make_block_map(FULL2, FULL2, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)}))

    @given(random_dfas(), st.lists(st.sampled_from([("0", "1"), ("1", "0")]).flatmap(random_dfas),
                                   max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_many_sided_product_matches_the_pairwise_fold(self, a, bs):
        bad = a
        for b in bs:
            bad = _old_product(bad, b)
        assert au.separating_word(a, *bs) == au.shortest_accepted(bad)
        if bs:  # the same reachable tuples, nested in pairs
            assert au.product_dfa(a, *bs).n == bad.n
