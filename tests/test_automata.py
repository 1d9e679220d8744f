"""Automaton machinery and the syntactic monoid size that the period set
keeps."""

import itertools
import pathlib

from sdcat import analysis as an
from sdcat import automata as au
from sdcat.automata import Nfa
from sdcat.core import empty_shift, golden_mean
from sdcat.files import load_shift

from conftest import shortest_accepted

CLI_DATA = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data" / "cli"


def brute_context_classes(x, max_len=4):
    """Myhill classes of words up to max_len by direct two-sided context
    comparison (contexts bounded by max_len as well)."""
    words = [()]
    for n in range(1, max_len + 1):
        words.extend(itertools.product(x.alphabet, repeat=n))

    def context(w):
        out = set()
        for u in words:
            for v in words:
                if x.contains_word(u + tuple(w) + v):
                    out.add((u, v))
        return frozenset(out)

    classes = {}
    for w in words:
        classes.setdefault(context(w), []).append(w)
    return classes


class TestDeterminizeMinimize:
    def test_minimal_input_is_fixed(self, golden):
        again = au.minimize(golden.dfa)
        assert again == golden.dfa

    def test_golden_nfa_determinizes_to_two_live_states(self):
        # 2-state nondeterministic presentation of the golden mean factors
        nfa = Nfa(("0", "1"), 2,
                  [(0, "0", 0), (0, "0", 1), (0, "1", 1), (1, "0", 0)],
                  {0, 1}, {0, 1})
        dfa = au.determinize_minimize(nfa)
        g = golden_mean()
        # canonical form: the same language gives the same automaton
        assert dfa == g.dfa
        assert dfa.n == 2

    def test_empty_language(self):
        nfa = Nfa(("0",), 1, [], {0}, set())
        dfa = au.determinize_minimize(nfa)
        assert shortest_accepted(dfa) is None

    def test_idempotent_and_language_preserving(self, even_shift):
        once = au.minimize(even_shift.dfa)
        twice = au.minimize(once)
        assert once == twice
        for n in range(0, 10):
            assert au.count_words(once, n) == au.count_words(even_shift.dfa, n)


    def test_rows_are_the_transitions_by_symbol(self, even_shift):
        dfa = au.determinize(Nfa(("0", "1"), 3, [(0, "1", 1), (1, "0", 2), (2, "1", 0), (0, "0", 0)],
                                 [0], [2]))
        for d in (dfa, even_shift.dfa):
            assert d.rows is d.rows and d.rows == tuple(dict(row) for row in d.trans)
            for q in range(d.n):
                for a in ("0", "1"):
                    assert d.step(q, a) == next((p for b, p in d.trans[q] if b == a), None)
        assert dfa.step(None, "0") is None


class TestLanguageOps:
    def test_intersection_with_complement_is_empty(self, golden):
        # the difference product accepts L(a) intersected with the complement of L(b)
        assert shortest_accepted(au.product_dfa(golden.dfa, golden.dfa)) is None

    def test_golden_inside_full(self, golden, full2):
        assert au.included(golden.dfa, full2.dfa)
        assert not au.included(full2.dfa, golden.dfa)

    def test_golden_differs_from_even(self, golden, even_shift):
        assert not golden.language_equal(even_shift)
        w = au.separating_word(even_shift.dfa, golden.dfa)
        assert w == ("1", "1")

    def test_union(self, golden, even_shift):
        # the subset construction of the disjoint sum accepts the union
        a, b = golden.dfa, even_shift.dfa
        edges = [(q, s, p) for q in range(a.n) for s, p in a.trans[q]]
        edges += [(a.n + q, s, a.n + p) for q in range(b.n) for s, p in b.trans[q]]
        accepting = set(a.accepting) | {a.n + q for q in b.accepting}
        u = au.determinize(Nfa(a.alphabet, a.n + b.n, edges, {a.init, a.n + b.init}, accepting))
        assert au.included(a, u)
        assert au.included(b, u)


class TestSyntacticMonoid:
    def test_full_shift_is_trivial(self, full2):
        assert an.monoid_size(full2) == 1

    def test_golden_mean_has_six_classes(self):
        # the size matches the brute-force Myhill classes, on the golden
        # mean and on the other shift files of the CLI benchmark
        sizes = {"golden": 6, "even": 7, "x012": 8, "isolated": 6, "runs": 11, "full": 1}
        for name, size in sizes.items():
            x = load_shift(str(CLI_DATA / f"{name}.shift"))
            assert an.monoid_size(x) == size, name
            assert len(brute_context_classes(x)) == size, name

    def test_empty_shift_identity_and_zero(self):
        # the class of the empty word and that of every other word
        assert an.monoid_size(empty_shift(["0", "1"])) == 2
