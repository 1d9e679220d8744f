"""Automaton machinery and syntactic monoids."""

import itertools

from sdcat import automata as au
from sdcat.automata import Nfa
from sdcat.core import empty_shift, golden_mean

from conftest import shortest_accepted


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
        m = au.syntactic_monoid_of_dfa(full2.dfa)
        assert m.size == 1

    def test_golden_mean_has_six_classes(self, golden):
        m = au.syntactic_monoid_of_dfa(golden.dfa)
        assert m.size == 6
        assert m.zero is not None
        assert m.class_of(("1", "1")) == m.zero
        # matches the brute-force Myhill classes
        brute = brute_context_classes(golden)
        assert len(brute) == 6

    def test_empty_shift_identity_and_zero(self):
        e = empty_shift(["0", "1"])
        m = au.syntactic_monoid_of_dfa(e.dfa)
        assert m.size == 2
        assert m.class_of(("0",)) == m.zero != m.identity

    def test_class_of_is_homomorphism(self, golden):
        m = au.syntactic_monoid_of_dfa(golden.dfa)
        words = [()]
        for n in range(1, 5):
            words.extend(itertools.product(golden.alphabet, repeat=n))
        for u in words[:20]:
            for v in words[:20]:
                assert m.class_of(tuple(u) + tuple(v)) == m.mul(m.class_of(u), m.class_of(v))

    def test_associativity_of_table(self, golden, even_shift):
        for x in (golden, even_shift):
            m = au.syntactic_monoid_of_dfa(x.dfa)
            assert m.size <= 30
            for a in range(m.size):
                for b in range(m.size):
                    for c in range(m.size):
                        assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))


class TestPumpable:
    """A word pumps (all its powers behave alike) iff its syntactic class
    is idempotent."""

    def test_full_shift_everything_pumpable(self, full2):
        m = au.syntactic_monoid_of_dfa(full2.dfa)
        x = m.class_of(("0",))
        assert m.mul(x, x) == x

    def test_golden_01_pumpable(self, golden):
        m = au.syntactic_monoid_of_dfa(golden.dfa)
        x = m.class_of(("0", "1"))
        assert m.mul(x, x) == x

    def test_golden_1_not_pumpable(self, golden):
        m = au.syntactic_monoid_of_dfa(golden.dfa)
        x = m.class_of(("1",))
        assert m.mul(x, x) != x
