"""Shift-level and map-level predicates."""

from collections import Counter
from functools import cached_property

import pytest

from sdcat import analysis as an
from sdcat.core import (
    PeriodicPoint,
    apply_map,
    compose,
    diagonal_relation,
    full_shift,
    identity_map,
    make_block_map,
    presentation_from_edges,
    product_presentation,
)

from conftest import recheck_garden_of_eden, recheck_pair

# x is no SFT but a subSFT of x | y, with window 8: no witness separates them
FOUR_NODE_PAIR = (
    presentation_from_edges(("0", "1", "2"), 4, [
        (0, "0", 2), (0, "2", 0), (1, "0", 3), (1, "1", 3), (1, "2", 2), (2, "0", 2),
        (2, "1", 1), (2, "2", 3), (3, "0", 1), (3, "1", 3), (3, "2", 0)]),
    presentation_from_edges(("0", "1", "2"), 4, [
        (0, "0", 2), (0, "2", 1), (1, "1", 2), (2, "2", 1), (3, "0", 0), (3, "2", 3)]),
)


class TestImage:
    def test_identity_image(self, golden):
        assert an.image(identity_map(golden)).language_equal(golden)

    def test_constant_image_is_trivial(self, const0, full2):
        img = an.image(const0)
        assert img.words(2) == [("0", "0")]

    def test_xor2_image_on_no000111(self, xor2_no000111):
        img = an.image(xor2_no000111)
        # 1-runs bounded by 2 (inputs cannot repeat a symbol 3 times)
        brute = set()
        src = xor2_no000111.source
        for w in src.words(8 + 2):
            brute.add(tuple(str((int(w[i + 1]) + int(w[i + 2])) % 2) for i in range(8)))
        assert set(img.words(8)) == brute

    def test_image_of_composition_shrinks(self, xor2, and_rule):
        lhs = an.image(compose(and_rule, xor2))
        assert lhs.included_in(an.image(and_rule))


class TestKernel:
    def test_identity_kernel_is_diagonal(self, golden):
        ker = an.kernel_set(identity_map(golden))
        assert ker.presentation.language_equal(diagonal_relation(golden))

    def test_xor3_kernel_constituents(self, xor3, full2):
        ker = an.kernel_set(xor3)
        consts = an.constituents(ker.presentation)
        assert len(consts) == 2
        diag = diagonal_relation(full2)
        flags = [c.language_equal(diag) for c in consts]
        assert sum(flags) == 1
        other = consts[flags.index(False)]
        assert not an.is_mixing(other)
        ps = an.periods(other)
        assert ps.upto(12) == [3, 6, 9, 12]
        assert not ps.is_cofinite()

    def test_xor2_no000111_kernel_two_mixing(self, xor2_no000111):
        ker = an.kernel_set(xor2_no000111)
        consts = an.constituents(ker.presentation)
        assert len(consts) == 2
        assert all(an.is_mixing(c) for c in consts)

    def test_kernel_reflexive_symmetric_transitive(self, xor3):
        ker = an.kernel_set(xor3)
        checks_ok = an.swap_relation(ker).presentation.language_equal(ker.presentation)
        assert checks_ok
        assert diagonal_relation(xor3.source).included_in(ker.presentation)
        # transitivity on periodic points up to period 6
        from sdcat.colimits import relation_checks

        assert relation_checks(ker, period_bound=6)["transitive_on_periodic"]


class TestEqualizerSet:
    def test_equal_maps_give_everything(self, xor2, full2):
        assert an.equalizer_set(xor2, xor2).language_equal(full2)

    def test_symmetry(self, xor2, const0):
        a = an.equalizer_set(xor2, const0)
        b = an.equalizer_set(const0, xor2)
        assert a.language_equal(b)

    def test_three_point_equalizer_set(self, eq_example_map, const0):
        e = an.equalizer_set(eq_example_map, const0)
        assert e.contains_periodic(("0",))
        assert e.contains_periodic(("0", "1"))
        assert not e.contains_periodic(("1",))
        assert [e.count_words(n) for n in (1, 2, 3, 4)] == [2, 3, 3, 3]

    def test_xor2_vs_zero(self, xor2, const0):
        e = an.equalizer_set(xor2, const0)
        assert e.contains_periodic(("0",)) and e.contains_periodic(("1",))
        assert e.count_words(2) == 2


class TestConstituents:
    def test_golden_is_its_own_constituent(self, golden):
        consts = an.constituents(golden)
        assert len(consts) == 1 and consts[0].language_equal(golden)

    def test_disjoint_union_has_two(self, golden, full3):
        from sdcat.core import disjoint_union

        u, _, _ = disjoint_union(golden, full3)
        assert len(an.constituents(u)) == 2


class TestTransitiveMixing:
    def test_golden(self, golden):
        assert an.is_transitive(golden)
        assert an.is_mixing(golden)

    def test_orbit01(self, orbit01):
        assert an.is_transitive(orbit01)
        assert not an.is_mixing(orbit01)

    def test_union_not_transitive(self, golden):
        from sdcat.core import disjoint_union

        u, _, _ = disjoint_union(golden, golden)
        assert not an.is_transitive(u)

    def test_even_shift_mixing(self, even_shift):
        assert an.is_transitive(even_shift)
        assert an.is_mixing(even_shift)

    def test_x012_not_transitive(self, x012):
        assert not an.is_transitive(x012)


class TestPeriods:
    def test_full_shift_all_periods(self, full2):
        assert an.periods(full2).upto(6) == [1, 2, 3, 4, 5, 6]

    def test_orbit01_even_periods(self, orbit01):
        assert an.periods(orbit01).upto(8) == [2, 4, 6, 8]

    def test_empty_shift_no_periods(self):
        from sdcat.core import empty_shift

        per = an.periods(empty_shift(["0", "1"]))
        assert not per.explicit and not any(per.eventual)

    def test_product_periods_intersect(self, golden, orbit01, full2):
        pairs = [(golden, orbit01), (orbit01, orbit01), (golden, full2)]
        for x, y in pairs:
            p = an.periods(product_presentation(x, y))
            px, py = an.periods(x), an.periods(y)
            for n in range(1, 13):
                assert p.contains(n) == (px.contains(n) and py.contains(n))

    def test_peric(self, orbit01, full2):
        inc = make_block_map(orbit01, full2, 0, {("0",): "0", ("1",): "1"})
        assert an.is_peric(inc).yes
        # a map full -> orbit01 cannot exist; the period sets show why
        assert an.periods(full2).first_not_in(an.periods(orbit01)) == 1

    def test_period_inclusion_is_kept_per_pair_of_shifts(self, monkeypatch):
        # fresh shifts, so no inclusion is kept from another test
        x = full_shift(["0", "1"])
        y = full_shift(["0", "1", "2"])
        calls = []
        real = an.PeriodSet.first_not_in
        monkeypatch.setattr(an.PeriodSet, "first_not_in",
                            lambda self, other: calls.append(other) or real(self, other))
        f = make_block_map(x, y, 0, {("0",): "0", ("1",): "1"})
        g = make_block_map(x, y, 0, {("0",): "2", ("1",): "2"})
        assert an.is_peric(f).yes and len(calls) == 1
        assert an.is_peric(g) is an.is_peric(f)
        assert len(calls) == 1
        assert an.period_inclusion(y, x).yes and len(calls) == 2

    def test_peric_vacuous_on_empty_source(self, orbit01):
        from sdcat.core import empty_shift

        emp = empty_shift(["0", "1"])
        f = make_block_map(emp, orbit01, 0, {})
        assert an.is_peric(f).yes


class TestIsSft:
    def test_golden_window_two(self, golden):
        v = an.is_sft(golden)
        assert v.yes and v.certificate["window"] == 2

    def test_full_window_one(self, full2):
        v = an.is_sft(full2)
        assert v.yes and v.certificate["window"] == 1

    def test_even_shift_not_sft_with_witness(self, even_shift, full2):
        from conftest import recheck_pumpable

        v = an.is_sft(even_shift)
        assert v.no
        recheck_pumpable(v.witness, even_shift, full2)

    def test_sft_past_the_small_windows_needs_no_witness_search(self, monkeypatch):
        # no window below five describes this SFT; trying every (u, w, v)
        # of the witness search on it took minutes
        edges = [(0, "0", 1), (0, "1", 0), (1, "0", 2), (1, "1", 3), (2, "1", 3),
                 (3, "0", 1), (3, "1", 4), (4, "0", 2), (4, "1", 5), (5, "1", 0)]
        x = presentation_from_edges(("0", "1"), 6, edges)
        monkeypatch.setattr(an, "_non_subsft_witness",
                            lambda *a: pytest.fail("searched for a witness"))
        v = an.is_sft(x)
        assert v.yes and v.certificate == {"window": 5}

    def test_shift_without_finite_memory_tries_no_large_window(self, monkeypatch):
        from sdcat.core import sft_approximation

        # no SFT, and the witness search finds no pumpable family for it
        edges = [(0, "0", 0), (1, "0", 1), (1, "1", 3), (1, "1", 4), (2, "0", 0),
                 (2, "1", 2), (2, "1", 3), (2, "1", 4), (3, "1", 3), (4, "1", 4)]
        x = presentation_from_edges(("0", "1"), 5, edges)
        windows = []
        monkeypatch.setattr(an, "sft_approximation",
                            lambda y, m: windows.append(m) or sft_approximation(y, m))
        v = an.is_sft(x)
        assert v.undecided and "follower sets" in v.note
        assert windows == []

    def test_witness_search_stops_on_the_budget(self):
        from conftest import ceiling
        from sdcat.errors import set_budget

        # the classes and class pairs of the witness search count against
        # the budget; uncounted, this inclusion ran for over ten minutes
        x, y = FOUR_NODE_PAIR
        set_budget(20_000)
        try:
            with ceiling(30, "is_subsft_of"):
                v = an.is_subsft_of(x, an.union_presentation(x, y))
        finally:
            set_budget(None)
        assert v.yes and v.certificate == {"window": 8}
        # at the default budget the search tries every class within its
        # length bounds
        with ceiling(3, "is_subsft_of"):
            v = an.is_subsft_of(x, an.union_presentation(x, y))
        assert v.yes and v.certificate == {"window": 8}

    def test_witness_budget_counts_classes_not_words(self):
        from conftest import recheck_pumpable
        from sdcat.errors import set_budget

        # 15 live states: the words up to the length bounds outnumber a
        # budget of 20,000, their classes do not
        x = presentation_from_edges(("0", "1", "2"), 5, [
            (0, "0", 0), (0, "1", 1), (0, "2", 1), (1, "0", 0), (1, "1", 4), (2, "0", 3),
            (2, "1", 2), (2, "2", 2), (3, "2", 0), (4, "0", 2), (4, "2", 2)])
        set_budget(20_000)
        try:
            v = an.is_sft(x)
        finally:
            set_budget(None)
        assert v.no
        recheck_pumpable(v.witness, x, full_shift(x.alphabet))

    def test_witness_search_lists_no_words(self, monkeypatch, even_shift, full2):
        from sdcat.core import Presentation

        for name in ("words", "periodic_words"):
            monkeypatch.setattr(Presentation, name,
                                lambda *a, name=name: pytest.fail(f"listed {name}"))
        assert an._non_subsft_witness(even_shift, full2) is not None
        x, y = FOUR_NODE_PAIR
        assert an._non_subsft_witness(x, an.union_presentation(x, y)) is None

    def test_relative_subsft(self, golden, full2):
        assert an.is_subsft_of(golden, full2).yes
        # a shift is always a width-1 subSFT of itself
        v = an.is_subsft_of(golden, golden)
        assert v.yes and v.certificate["window"] == 1


class TestInjectivityFamily:
    def test_identity(self, full2):
        fam = an.injectivity_family(identity_map(full2))
        assert (fam.injective, fam.injective_on_periodic, fam.injective_on_uniform) == (
            True, True, True,
        )

    def test_xor3(self, xor3):
        fam = an.injectivity_family(xor3)
        assert (fam.injective, fam.injective_on_periodic, fam.injective_on_uniform) == (
            False, False, True,
        )

    def test_uniform_no_carries_two_points_with_one_image(self, full2):
        from sdcat import classify as cl
        from sdcat.limits import CategoryTag

        windows = full2.words(3)
        nos = monic_nos = 0
        for bits in range(256):
            f = make_block_map(full2, full2, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)})
            fam = an.injectivity_family(f)
            assert (fam.uniform_pair is None) == fam.injective_on_uniform
            if fam.injective_on_uniform:
                continue
            nos += 1
            p, q = fam.uniform_pair
            assert len(p.word) == len(q.word) == 1 and not p.same_point(q)
            assert apply_map(f, p).same_point(apply_map(f, q))
            row = cl.classify(f, CategoryTag.parse("K2"))
            assert row["injective_on_uniform"].witness == {"pair": fam.uniform_pair}
            monic = cl.is_monic(f, CategoryTag.parse("M1"))
            if monic.note == "not injective on uniform points":
                monic_nos += 1
                assert monic.witness == {"pair": fam.uniform_pair}
        # the maps with equal images of 000 and 111; among them the
        # preinjective ones are refuted in M1 on uniform points
        assert nos == 128 and monic_nos > 0

    def test_witness_walk_steps_each_node_once(self):
        # the walk 0 -> 1 -> 2 -> 1 closes its cycle at node 1
        stepped = []

        def step(q):
            stepped.append(q)
            return str(q), (1, 2, 1)[q]

        assert an._walk_to_cycle(0, step) == (("0",), ("1", "2"))
        assert stepped == [0, 1, 2]

    def test_t3_example(self, t3_monic_map):
        fam = an.injectivity_family(t3_monic_map)
        assert not fam.injective
        assert fam.injective_on_periodic

    def test_injective_implies_periodic(self, full2):
        # scan a slice of radius-1 endomorphisms
        windows = full2.words(3)
        for bits in range(0, 256, 7):
            rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
            f = make_block_map(full2, full2, 1, rule)
            fam = an.injectivity_family(f)
            if fam.injective:
                assert fam.injective_on_periodic
            # transitive SFT source: periodic injectivity forces injectivity
            if fam.injective_on_periodic:
                assert fam.injective


class TestPreinjective:
    def test_identity(self, full2):
        assert an.is_preinjective(identity_map(full2)).yes

    def test_xor3_preinjective_with_constituent_note(self, xor3):
        v = an.is_preinjective(xor3)
        assert v.yes
        assert "diagonal is a constituent: True" in (v.note or "")

    def test_sofic_counterexample(self, sofic_preinj_map):
        f = sofic_preinj_map
        consts = an.constituents(an.kernel_set(f).presentation)
        diag = diagonal_relation(f.source)
        assert len(consts) == 1 and consts[0].language_equal(diag)
        v = an.is_preinjective(f)
        assert v.no
        recheck_pair(f, v.witness["pair"], diamond=True)


class TestResolvingness:
    def test_xor2_both(self, xor2):
        r = an.resolvingness(xor2)
        assert r.right_resolving and r.left_resolving

    def test_modified_xor_left_only(self, full3):
        rule = {}
        for w in full3.words(3):
            a, b = w[1], w[2]
            rule[w] = "2" if a == "2" else str((int(a) + int(b)) % 2)
        mod = make_block_map(full3, full3, 1, rule)
        r = an.resolvingness(mod)
        assert r.left_resolving and not r.right_resolving

    def test_identity_both(self, full2):
        r = an.resolvingness(identity_map(full2))
        assert r.right_resolving and r.left_resolving


class TestFiniteCountable:
    def test_orbit01_finite(self, orbit01):
        assert an.is_finite(orbit01)
        assert an.is_countable(orbit01)

    def test_x012_countable_not_finite(self, x012):
        assert not an.is_finite(x012)
        assert an.is_countable(x012)

    def test_golden_uncountable(self, golden):
        assert not an.is_countable(golden)
        assert not an.is_finite(golden)


class TestMixingSftImagePersistence:
    def test_split_epic_image_is_mixing_sft(self, shrink_map, xor3, full2):
        # every surjective endomorphism of a mixing SFT found split epic has
        # a mixing SFT image by construction; spot check the xor3 instance
        img = an.image(xor3)
        assert an.is_mixing(img) and an.is_sft(img).yes


class TestFactsDecidedOnce:
    def test_facts_are_decided_once_per_object(self, monkeypatch):
        from sdcat import automata as au
        from sdcat.core import Presentation, golden_mean

        x = golden_mean()
        f = identity_map(x)
        work = Counter()

        def count(owner, name):
            real = getattr(owner, name)

            def counting(*args):
                work[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counting)

        # the step each fact's computation cannot skip
        steps = [(an, "_memory_window"), (an, "scc_subshift"), (au, "minimize"),
                 (au, "compose_pfn"), (an, "image_word"), (an, "_diagonal_view"),
                 (Presentation, "language_equal")]
        for owner, name in steps:
            count(owner, name)

        def facts():
            return (an.is_sft(x), an.is_mixing(x), an.constituents(x), an.periods(x),
                    an.injectivity_family(f), an.is_preinjective(f), an.surjectivity(f),
                    an.resolvingness(f))

        first = facts()
        after_first = Counter(work)
        assert all(after_first[name] > 0 for _, name in steps)
        for _ in range(2):
            again = facts()
            assert all(a is b for a, b in zip(first, again) if not isinstance(a, bool))
            assert again == first
        assert work == after_first
        # the kept answers are not fields: equality and hashing are unchanged
        y = golden_mean()
        g = identity_map(y)
        assert x == y and hash(x) == hash(y)
        assert f == g and hash(f) == hash(g)

    def test_each_kernel_has_one_diagonal_view(self, and_rule, full2, monkeypatch):
        from sdcat import core

        # a fresh map, so no kernel fact is kept from another test
        f = make_block_map(full2, full2, 1, and_rule.rule_dict)
        sccs = []
        real_sccs = an.au.strongly_connected_components
        monkeypatch.setattr(an.au, "strongly_connected_components",
                            lambda nodes, succ: sccs.append(nodes) or real_sccs(nodes, succ))
        for _ in range(2):
            fam = an.injectivity_family(f)
            pre = an.is_preinjective(f)
            res = an.resolvingness(f)
        assert not fam.injective and pre.no and res == an.Resolvingness(False, False)
        recheck_pair(f, pre.witness["pair"], diamond=True)
        # the witness searches on the first off-diagonal edge decide, so
        # no component pass runs
        assert len(sccs) == 0

        built = []
        real = core.presentation_from_nfa
        monkeypatch.setattr(core, "presentation_from_nfa",
                            lambda alphabet, nfa, *rest: built.append(nfa) or real(alphabet, nfa, *rest))
        x = core.golden_mean()
        built.clear()
        assert diagonal_relation(x) is diagonal_relation(x)
        assert len(built) == 1

    def test_mixing_petals_are_searched_once_per_map(self, and_rule, full2, monkeypatch):
        from sdcat import classify as cl
        from sdcat.limits import CategoryTag

        m2_m3 = [CategoryTag.parse(t) for t in ("M2", "M3")]
        searches = []
        real = an._bfs_path

        def counting(start, succ, stop, *what):
            # the petal search runs over (node, length) pairs
            if isinstance(start, tuple):
                searches.append(start)
            return real(start, succ, stop, *what)

        monkeypatch.setattr(an, "_bfs_path", counting)
        # fresh maps, so no kernel fact is kept from another test.  The AND
        # rule is not preinjective, so its diamond pair answers both and no
        # petal search runs
        f = make_block_map(full2, full2, 1, and_rule.rule_dict)
        m2, m3 = (cl.is_monic(f, cat) for cat in m2_m3)
        assert m2.no and m3.no and m2.witness == m3.witness == an.is_preinjective(f).witness
        assert not searches
        # census rule 30 is preinjective, and NO in both by its petals
        g = make_block_map(full2, full2, 1, {w: str(30 >> i & 1) for i, w in enumerate(full2.words(3))})
        m2, m3 = (cl.is_monic(g, cat) for cat in m2_m3)
        assert an.is_preinjective(g).yes
        assert m2.no and m3.no and m2.witness == m3.witness and "petals" in m2.witness
        assert len(searches) == 1

    @staticmethod
    def _count_sweeps(view, monkeypatch):
        """The component passes and reach closures that read ``view``."""
        sweeps = Counter()
        for name in ("strongly_connected_components", "closure"):
            def counting(nodes, succ, name=name, real=getattr(an.au, name)):
                if any(getattr(succ, "__self__", None) is x for x in (view.succ, view.pred)):
                    sweeps[name] += 1
                return real(nodes, succ)

            monkeypatch.setattr(an.au, name, counting)
        return sweeps

    def _kernel_facts(self, f):
        from sdcat import classify as cl
        from sdcat.limits import CategoryTag

        return (an.injectivity_family(f), an.is_preinjective(f),
                cl.is_monic(f, CategoryTag.parse("M2")), cl.is_monic(f, CategoryTag.parse("M3")))

    def test_first_edge_searches_decide_without_a_sweep(self, and_rule, full2, monkeypatch):
        # a fresh map, so no kernel fact is kept from another test
        f = make_block_map(full2, full2, 1, and_rule.rule_dict)
        sweeps = self._count_sweeps(an._diagonal_view(f), monkeypatch)
        fam, pre, m2, m3 = self._kernel_facts(f)
        assert not fam.injective_on_periodic and pre.no and m2.no and m3.no
        assert not sweeps

    def test_one_component_pass_when_the_first_component_is_periodic(self, full2, monkeypatch):
        def census_rule(k):
            return make_block_map(full2, full2, 1, {w: str(k >> i & 1) for i, w in enumerate(full2.words(3))})

        # census rule 90: preinjective, and its first off-diagonal component
        # has period 2 or more and a later one period 1
        f = census_rule(90)
        sweeps = self._count_sweeps(an._diagonal_view(f), monkeypatch)
        fam, pre, m2, m3 = self._kernel_facts(f)
        assert not fam.injective_on_periodic and pre.yes and m2.no and m3.no
        assert [period for _, _, period in an.off_diagonal_components(f)] == [2, 1]
        assert sweeps == {"strongly_connected_components": 1}
        # census rule 81 has such components too, but it is not preinjective:
        # the sweep for its diamond answers M2 and M3, with no component pass
        f = census_rule(81)
        sweeps = self._count_sweeps(an._diagonal_view(f), monkeypatch)
        fam, pre, m2, m3 = self._kernel_facts(f)
        assert not fam.injective_on_periodic and pre.no and m2.no and m3.no
        assert sweeps == {"closure": 2}

    @staticmethod
    def _count_sweep_lists(monkeypatch):
        """The builds of the view's node lists ``succ`` and ``pred`` and of
        its off-diagonal edge list ``off_edges``."""
        built = Counter()
        for name in ("succ", "pred", "off_edges"):
            real = vars(an._DiagonalView)[name].func
            prop = cached_property(lambda view, name=name, real=real: built.update([name]) or real(view))
            prop.__set_name__(an._DiagonalView, name)
            monkeypatch.setattr(an._DiagonalView, name, prop)
        return built

    def test_sweep_lists_are_built_only_when_a_sweep_runs(self, and_rule, full2, monkeypatch):
        # a fresh map, so no kernel fact is kept from another test; its
        # first off-diagonal edge decides every kernel fact
        f = make_block_map(full2, full2, 1, and_rule.rule_dict)
        built = self._count_sweep_lists(monkeypatch)
        self._kernel_facts(f)
        an.resolvingness(f)
        view = an._diagonal_view(f)
        assert not {"succ", "pred", "off_edges"} & set(vars(view))
        assert not built

        # census rule 81: the one component pass builds ``succ`` and
        # ``off_edges`` once, a component pass run again on the same view
        # builds nothing, and the diamond sweep reads the kept edge list
        rule = {w: str(81 >> i & 1) for i, w in enumerate(full2.words(3))}
        f = make_block_map(full2, full2, 1, rule)
        comps = an.off_diagonal_components(f)
        assert comps and built == {"succ": 1, "off_edges": 1}
        del vars(f)[an.off_diagonal_components.key]
        assert an.off_diagonal_components(f) == comps
        assert built == {"succ": 1, "off_edges": 1}
        self._kernel_facts(f)
        assert built == {"succ": 1, "pred": 1, "off_edges": 1}

    def test_mixing_of_kernel_constituents_builds_no_components(self, xor3, monkeypatch):
        from sdcat.core import full_shift

        # a fresh map, so no kernel fact is kept from another test
        full = full_shift(("0", "1"))
        f = make_block_map(full, full, xor3.radius, xor3.rule_dict)
        built = []
        real = an.scc_subshift
        monkeypatch.setattr(an, "scc_subshift", lambda x, comp: built.append(comp) or real(x, comp))
        consts = an.constituents(f.kernel)
        assert built
        before = len(built)
        assert sorted(an.is_mixing(c) for c in consts) == [False, True]
        for _, s in an.cycle_components(f.kernel):
            an.is_mixing(s)
        assert len(built) == before

    def test_classify_and_reversibility_build_no_image(self, xor3, and_rule):
        from sdcat import classify as cl
        from sdcat import dynamics as dy
        from sdcat.limits import CategoryTag

        # fresh maps, so no verdict is kept from another test; neither map
        # is injective, so nothing but surjectivity could ask for the image
        for g, onto in [(xor3, True), (and_rule, False)]:
            f = make_block_map(g.source, g.target, g.radius, g.rule_dict)
            row = cl.classify(f, CategoryTag.parse("K2"))
            dy.is_reversible(f)
            assert row["epic"].yes == onto
            assert "image" not in vars(f)

    def test_kernel_questions_build_no_canonical_kernel(self):
        from sdcat import classify as cl
        from sdcat.core import full_shift
        from sdcat.limits import CategoryTag

        # fresh ladder-size maps: a permutive rule, onto and preinjective,
        # whose YES note used to ask for the kernel's constituents, and a
        # rule that is neither
        x = full_shift(("0", "1", "2"))
        windows = x.words(3)
        for rule, pre in [({w: str(sum(map(int, w)) % 3) for w in windows}, True),
                          ({w: max(w) for w in windows}, False)]:
            f = make_block_map(x, x, 1, rule)
            row = cl.classify(f, CategoryTag.parse("K2"))
            fam = an.injectivity_family(f)
            v = an.is_preinjective(f)
            an.resolvingness(f)
            assert row["epic"].yes == pre and v.yes == pre and not fam.injective
            assert v.note == ("diagonal is a constituent: True" if pre else None)
            assert "kernel" not in vars(f)

    def test_non_surjective_verdicts_carry_the_missing_word(self, golden, full2, and_rule):
        from sdcat import classify as cl
        from sdcat.limits import CategoryTag

        # the golden-mean inclusion is no endomorphism, so its NO carries
        # the missed word; the AND rule's is a Garden-of-Eden diamond
        inc = make_block_map(golden, full2, 0, {("0",): "0", ("1",): "1"})
        word = an.surjectivity(inc).witness["word"]
        assert word == an.missed_word(inc)
        assert not inc.image.contains_word(word) and inc.target.contains_word(word)
        surj = an.surjectivity(and_rule)
        recheck_garden_of_eden(and_rule, surj)
        for cat in ("K2", "T2", "M2", "M3"):
            assert cl.is_regular_epic(inc, CategoryTag.parse(cat)).witness == {"word": word}
            assert cl.is_regular_epic(and_rule, CategoryTag.parse(cat)).witness == surj.witness

    def test_undecided_sft_answer_is_not_kept(self):
        from sdcat.core import make_presentation
        from sdcat.errors import set_budget

        # a fresh even shift, so no verdict is kept from another test
        x = make_presentation(["0", "1"], "graph",
                              (["e", "o"], [("e", "o", "0"), ("o", "e", "0"), ("e", "e", "1")]))
        # a budget of 1 stops the witness pool before its first word
        set_budget(1)
        try:
            assert an.is_sft(x).undecided
        finally:
            set_budget(None)
        sft = an.is_sft(x)
        assert sft.no and sft.witness["w"]
