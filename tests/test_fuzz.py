"""Randomized cross-checks of the canonicalization layer.

Random labeled graphs are canonicalized and their derived data compared
against definition-level recomputation: language stability, mirror
involution, periodic membership, product/union identities, the
essential-state trim, the fiber product of block maps, structural language
equality, the shift period, and transitivity, mixing and constituents.
"""

import math

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
