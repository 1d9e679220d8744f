"""The morphism classifier across the twelve categories."""

import contextlib
import itertools

import pytest

from sdcat import analysis as an
from sdcat import classify as cl
from sdcat import limits as li
from sdcat import oracle as orc
from sdcat.core import (
    Presentation,
    apply_map,
    compose,
    empty_shift,
    full_shift,
    identity_map,
    make_block_map,
    make_presentation,
    maps_equal,
    shift_power,
)
from sdcat.errors import ValidationError, set_budget
from sdcat.limits import CategoryTag

from conftest import (recheck_certificates, recheck_mixing_diamond, recheck_pair, recheck_petals,
                      recheck_pumpable, seeded_onto_maps)

K1, K2, K3 = (CategoryTag.parse(t) for t in ("K1", "K2", "K3"))
T1, T2, T3 = (CategoryTag.parse(t) for t in ("T1", "T2", "T3"))
M1, M2, M3 = (CategoryTag.parse(t) for t in ("M1", "M2", "M3"))
P1, P2, P3 = (CategoryTag.parse(t) for t in ("P1", "P2", "P3"))


@pytest.fixture(scope="module")
def golden_inclusion(golden, full2):
    return make_block_map(golden, full2, 0, {("0",): "0", ("1",): "1"})


@pytest.fixture(scope="module")
def even_inclusion(even_shift, full2):
    return make_block_map(even_shift, full2, 0, {("0",): "0", ("1",): "1"})


class TestEpic:
    def test_identity(self, full2):
        assert cl.is_epic(identity_map(full2), K2).yes

    def test_xor3_surjective(self, xor3):
        assert cl.is_epic(xor3, K3).yes

    def test_inclusion_with_witness(self, golden_inclusion):
        v = cl.is_epic(golden_inclusion, K2)
        assert v.no and v.witness["word"] == ("1", "1")


class TestMonic:
    def test_identity_everywhere(self, full2, golden):
        for tag in (K1, K2, K3, M2, M3, T3):
            target = full2
            assert cl.is_monic(identity_map(target), tag).yes

    def test_xor3_monic_in_m2_not_injective(self, xor3):
        assert cl.is_monic(xor3, M2).yes
        assert not an.injectivity_family(xor3).injective

    def test_xor3_monic_in_m3_by_period_argument(self, xor3):
        v = cl.is_monic(xor3, M3)
        assert v.yes

    def test_xor2_on_no000111_not_monic_m2(self, xor2_no000111):
        v = cl.is_monic(xor2_no000111, M2)
        assert v.no
        recheck_petals(xor2_no000111, v.witness["petals"])

    def test_xor2_not_monic_k2(self, xor2):
        assert cl.is_monic(xor2, K2).no

    def test_not_injective_verdicts_carry_a_pair(self, xor2, t3_monic_map):
        from sdcat import dynamics as dy

        for f, cats in ((xor2, (K2, K3)), (t3_monic_map, (K3,))):
            verdicts = [cl.is_monic(f, cat) for cat in cats]
            verdicts += [cl.classify(f, cats[0])["injective"], cl.is_split_monic(f, cats[0]),
                         cl.is_regular_monic(f, cats[0])]
            if f.source.language_equal(f.target):
                verdicts.append(dy.is_reversible(f))
            for v in verdicts:
                assert v.no
                recheck_pair(f, v.witness["pair"])

    def test_not_injective_on_periodic_points_carries_a_periodic_pair(self, xor2):
        # T2 asks injectivity on periodic points too, which on its
        # transitive SFT sources is injectivity
        for v in (cl.is_monic(xor2, T2), cl.is_monic(xor2, T3),
                  cl.classify(xor2, K2)["injective_on_periodic"]):
            assert v.no
            p1, p2 = v.witness["pair"]
            assert not p1.same_point(p2)
            assert apply_map(xor2, p1).same_point(apply_map(xor2, p2))

    def test_t3_periodic_injectivity_suffices(self, t3_monic_map):
        assert cl.is_monic(t3_monic_map, T3).yes
        pre = an.is_preinjective(t3_monic_map)
        assert pre.no
        recheck_pair(t3_monic_map, pre.witness["pair"], diamond=True)

    def test_m1_uniform_point_violation(self, const0):
        v = cl.is_monic(const0, M1)
        assert v.no

    def test_level_one_reads_the_endomorphism_monoid(self, full2, full2p):
        # rule 30 is preinjective and sends 0^inf and 1^inf to 0^inf: the
        # constant maps to them are endomorphisms in K1 and T1 as in M1,
        # but keep no point in P1
        windows = full2.words(3)
        rule = {w: str(30 >> i & 1) for i, w in enumerate(windows)}
        f = make_block_map(full2, full2, 1, rule)
        for cat in (K1, T1, M1):
            v = cl.is_monic(f, cat)
            assert v.no and v.note == "not injective on uniform points"
            p1, p2 = v.witness["pair"]
            assert len(p1.word) == len(p2.word) == 1 and not p1.same_point(p2)
            assert apply_map(f, p1).same_point(apply_map(f, p2))
        v = cl.is_monic(make_block_map(full2p, full2p, 1, rule), P1)
        assert v.yes and v.note == "preinjective"

    def test_pointed_monic_reads_preinjectivity(self, full2p, even_shift, xor2, and_rule):
        # preinjective is YES; any other map from an SFT source is NO with
        # its diamond pair, and from a sofic source, in P3, stays open
        for cat in (P1, P2, P3):
            v = cl.is_monic(make_block_map(full2p, full2p, 1, xor2.rule_dict), cat)
            assert v.yes and v.note == "preinjective"
            f = make_block_map(full2p, full2p, 1, and_rule.rule_dict)
            v = cl.is_monic(f, cat)
            assert v.no and v.witness == an.is_preinjective(f).witness
            if cat != P1:
                recheck_mixing_diamond(f, v)
        zero_map = make_block_map(even_shift.with_point("1"), full2p, 0, {("0",): "0", ("1",): "0"})
        v = cl.is_monic(zero_map, P3)
        assert v.undecided and v.note == "not preinjective; no exact P3 criterion"


class TestStrongCondition:
    def test_identity_holds(self, full2):
        rep = cl.strong_condition(identity_map(full2), 2)
        assert rep.holds
        assert all(u == a for u, a in rep.assignment)

    def test_xor2_fails_at_one(self, xor2):
        rep = cl.strong_condition(xor2, 1)
        assert not rep.holds
        assert rep.failures

    def test_xor3_fails_at_p1(self, xor3):
        # the forced choice G(0) = 0 cannot absorb the point ..0 0 . 1 0 0..
        rep = cl.strong_condition(xor3, 1)
        assert not rep.holds
        assert rep.pointwise is None
        tup = rep.failures[0]
        assert tup["u"] == ("0",) and tup["w"] == ("1",)
        assert orc.ep_preimage_search(xor3, tup, pad=6) is None

    def test_compress_fails_with_diagonal_tuples(self, compress_map):
        rep = cl.strong_condition(compress_map, 1)
        assert not rep.holds
        tuples = [t for t in rep.failures if "w" in t]
        assert tuples
        for t in tuples:
            assert t["u"] == ("#",) and t["v"] == ("#",)
            # oracle confirmation: no conforming preimage with these tails
            assert orc.ep_preimage_search(compress_map, t, pad=8) is None

    def test_assignment_search_is_not_bounded_by_the_recursion_limit(self, full2):
        import inspect
        import sys

        # 62 periodic words of length at most 5, one search variable each
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            rep = cl.strong_condition(identity_map(full2), 5)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.holds and len(rep.assignment) == 62
        assert all(u == a for u, a in rep.assignment)

    def test_budget_stops_the_assignment_search(self, full2):
        from sdcat.errors import BudgetExceeded, set_budget

        # 14 search variables; no word list or automaton is larger than 8
        set_budget(10)
        try:
            with pytest.raises(BudgetExceeded, match="strong condition search"):
                cl.strong_condition(identity_map(full2), 3)
        finally:
            set_budget(None)

    def test_each_automaton_is_made_once_across_p(self, xor3, compress_map, shrink_map,
                                                  monkeypatch):
        import sys

        from sdcat import automata as au

        real_determinize, real_step = au.determinize, au._subset_step
        made, callers, stepped = [], [], []

        def counting(nfa):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
            made.append((frozenset(nfa.initial), frozenset(nfa.accepting),
                         tuple(tuple(sorted((a, tuple(sorted(d))) for a, d in row.items()))
                               for row in nfa.trans)))
            return real_determinize(nfa)

        def stepping(trans, subset):
            stepped.append((id(trans), frozenset(subset)))
            return real_step(trans, subset)

        monkeypatch.setattr(au, "determinize", counting)
        monkeypatch.setattr(au, "_subset_step", stepping)
        for g in (xor3, compress_map, shrink_map):
            # fresh maps: the facts of f are kept across p, a new map per p
            # starts from nothing but what its target keeps
            f = make_block_map(g.source, g.target, g.radius, g.rule_dict)
            for seen in (made, callers, stepped):
                seen.clear()
            reports = [cl.strong_condition(f, p) for p in range(1, 7)]
            # the classifier builds only the target automata, each once (the
            # rest make presentations); the preimage graph is stepped
            # lazily, each set of its states once
            assert {name for mod, name in callers if mod == cl.__name__} <= {"_bridges"}
            assert len(set(made)) == len(made)
            pre = [s for rows, s in stepped if rows == id(cl._pre_rows(f))]
            assert pre and len(set(pre)) == len(pre)
            for p, rep in enumerate(reports, 1):
                assert rep == cl.strong_condition(make_block_map(g.source, g.target, g.radius,
                                                                 g.rule_dict), p)


    def test_target_automata_are_made_once_across_maps(self, compress_map, monkeypatch):
        import sys

        from sdcat import automata as au

        real = au.determinize
        made = []

        def counting(nfa):
            if sys._getframe(1).f_code.co_name == "_bridges":
                made.append((frozenset(nfa.initial), frozenset(nfa.accepting)))
            return real(nfa)

        monkeypatch.setattr(au, "determinize", counting)
        # seeded maps onto a fresh full shift, so no automaton is kept from
        # another test; onto maps of one transitive shift that are not
        # injective settle split epicness before the strong condition
        for f in seeded_onto_maps(full_shift(("0", "1", "2")), full_shift(("0", "1"))):
            cl.classify(f, K2)
        assert made and len(set(made)) == len(made)
        # two copies of a map into a fresh copy of a target with two states
        # share its automata
        g = compress_map
        y = Presentation(g.target.alphabet, g.target.dfa, g.target.live)
        counts, reports = [], []
        for _ in range(2):
            made.clear()
            f = make_block_map(g.source, y, g.radius, g.rule_dict)
            reports.append([cl.strong_condition(f, p) for p in range(1, 5)])
            counts.append(len(made))
            assert len(set(made)) == len(made)
        assert counts[0] > 0 and counts[1] == 0 and reports[0] == reports[1]


class TestSplitEpic:
    def test_identity(self, full2):
        v = cl.is_split_epic(identity_map(full2), K2)
        assert v.yes

    def test_radius2_ternary_onto_binary_map_classifies(self, full2):
        # the twelfth of a seeded sample of radius-2 maps full3 -> full2:
        # its strong condition holds up to p = 6 with many preimages per
        # word, so building one preimage automaton per pair of ends does not
        # finish in time
        import random
        import time

        full3 = full_shift(["0", "1", "2"])
        rng = random.Random(5)
        for _ in range(12):
            rule = {w: rng.choice("01") for w in full3.words(5)}
        t0 = time.time()
        row = cl.classify(make_block_map(full3, full2, 2, rule), K2)
        assert time.time() - t0 < 60
        assert row["split_epic"].undecided
        assert "holds up to p = 6 on an SFT domain" in row["split_epic"].note
        yes = {"epic", "regular_epic", "peric"}
        assert all(row[k].yes for k in yes)
        assert all(row[k].no for k in row.keys() - yes - {"split_epic"})

    def test_k1_shrink_example(self, shrink_map, x012):
        v = cl.is_split_epic(shrink_map, K1)
        assert v.yes
        g = v.certificate
        assert g.radius <= 1
        assert maps_equal(compose(shrink_map, g), identity_map(x012))

    def test_compress_not_split_epic(self, compress_map):
        v = cl.is_split_epic(compress_map, K2)
        assert v.no
        assert v.witness["p"] == 1

    def test_not_surjective_fails_fast(self, golden_inclusion):
        assert cl.is_split_epic(golden_inclusion, K2).no

    def test_tmp1_bijectivity(self, flip, xor3):
        assert cl.is_split_epic(flip, M1).yes
        assert cl.is_split_epic(xor3, M1).no

    def test_track_projection_split_epic(self, full2):
        pr = li.product(full2, full2)
        p1 = pr.legs[0]
        v = cl.is_split_epic(p1, M2)
        assert v.yes
        g = v.certificate
        assert maps_equal(compose(p1, g), identity_map(full2))
        # the image of a split epi out of a mixing SFT stays a mixing SFT
        img = an.image(p1)
        assert an.is_mixing(img) and an.is_sft(img).yes

    def test_pointed_projection_section_preserves_points(self, full2p):
        from sdcat.core import PeriodicPoint, apply_map

        pr = li.product(full2p, full2p)
        obj = pr.object.with_point(("0", "0"))
        p1 = make_block_map(obj, full2p, 0, dict(pr.legs[0].rule_dict))
        v = cl.is_split_epic(p1, CategoryTag.parse("P2"))
        assert v.yes
        g = v.certificate
        img = apply_map(g, PeriodicPoint(("0",)))
        assert img.same_point(PeriodicPoint((("0", "0"),)))

    def test_engine_no_means_brute_finds_no_section(self, full2):
        windows = full2.words(3)
        for bits in (24, 60, 90, 105, 150, 195, 204, 240):
            rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
            f = make_block_map(full2, full2, 1, rule)
            verdict = cl.is_split_epic(f, K2, p_cap=2, radius_cap=1)
            if verdict.no:
                assert not orc.brute_decide("split_epic", f, {"radius_bound": 1})
            elif verdict.yes:
                g = verdict.certificate
                assert maps_equal(compose(f, g), identity_map(full2))

    def test_propagation_finds_a_section_where_a_static_search_thrashes(self, full3, full2):
        from sdcat.errors import set_budget

        # a search that checks each value against its assigned neighbours
        # only, after one arc consistency pass, thrashes at block radius 2
        # of this map past the default budget
        f = make_block_map(full3, full2, 1, dict(zip(full3.words(3), "000011100000111000000111001")))
        set_budget(20_000)
        try:
            g = cl.find_section(f, radius_cap=2)
        finally:
            set_budget(None)
        assert g is not None and g.radius == 1
        assert recheck_certificates(f)[0] == g


class TestBijections:
    def test_a_shift_by_four_splits_by_its_radius4_inverse(self, full2):
        # the inverse, the shift back by four, has a radius past the cap of
        # 3 that the section and retraction searches have
        f = shift_power(full2, 4)
        epic, monic = cl.is_split_epic(f, K2), cl.is_split_monic(f, K2)
        assert epic.yes and monic.yes
        g = epic.certificate
        assert g == monic.certificate == li.inverse(f)
        assert g.radius == 4 and epic.bound_used == monic.bound_used == {"radius": 4}
        assert maps_equal(g, shift_power(full2, -4))

    def test_a_bijection_past_the_budget_splits_with_the_bound_named(self, full2, monkeypatch):
        # the inverse of the shift by three is read off 2^13 source words,
        # past a budget of 5000; the map is still an isomorphism, and no
        # search runs for it
        f = shift_power(full2, 3)
        calls = []
        for name in ("strong_condition", "find_section", "find_retraction"):
            monkeypatch.setattr(cl, name, lambda *a, name=name, **k: calls.append(name))
        set_budget(5000)
        try:
            verdicts = [test(f, cat) for cat in (M1, K2, M2, K3)
                        for test in (cl.is_split_epic, cl.is_split_monic)]
        finally:
            set_budget(None)
        assert calls == []
        for verdict in verdicts:
            assert verdict.yes and verdict.certificate is None
            assert verdict.bound_used == {"radius_cap": li.CONNECTING_RADIUS_CAP, "budget": 5000}
            assert "word enumeration: size 8192 exceeds budget 5000" in verdict.note

    def test_census_automorphisms_are_regular_epis(self, full2):
        # an isomorphism is a regular epi: where the table has a blank cell,
        # a bijection is YES by that rule, and no other map is
        for bits in range(256):
            f = _census_map(full2, bits)
            bijective = bits in (15, 51, 85, 170, 204, 240)
            for cat in (K1, T1, T2, T3, M1, M2, M3):
                row = cl.classify(f, cat)
                got = row["regular_epic"]
                if bijective:
                    assert got.yes and "isomorphism" in got.note
                    assert row["split_epic"].yes and row["split_monic"].yes
                else:
                    assert not got.yes or "isomorphism" not in (got.note or "")
                assert not cl.implication_violations(row)


class TestIsomorphismRule:
    def test_bijections_and_rechecked_pairs(self, golden, full2p):
        # at level 1 of T, M and P the split and regular epis and monos are
        # the bijections: a YES is onto, and a NO names two points with
        # equal images
        census = [f for _, f, _ in orc.census_radius1_binary(checks=())]
        pointed = [make_block_map(full2p, full2p, 1, f.rule_dict) for f in census
                   if f.local(("0", "0", "0")) == "0"]
        windows, endos = golden.words(3), []
        for outs in itertools.product("01", repeat=len(windows)):
            with contextlib.suppress(ValidationError):
                endos.append(make_block_map(golden, golden, 1, dict(zip(windows, outs))))
        verdicts = [(f, test(f, cat)) for f in census + endos
                    for test, cat in ((cl.is_split_epic, T1), (cl.is_split_monic, M1),
                                      (cl.is_regular_monic, T1))]
        verdicts += [(f, cl.is_regular_epic(f, P1)) for f in pointed]
        answers = set()
        for f, verdict in verdicts:
            answers.add(verdict.answer)
            if verdict.yes:
                assert an.surjectivity(f).yes
                continue
            recheck_pair(f, verdict.witness["pair"])
        assert answers == {"YES", "NO"}


# a radius-2 endomorphism of the even shift, onto and not injective: its
# outputs on ``even_shift.words(5)`` in order
EVEN_ONTO_RULE = "00101001110101011001"


class TestNoSectionOfATransitiveEndomorphism:
    """An onto endomorphism of a transitive shift that is not injective has
    no section: a section would be an injective endomorphism, onto by Lind
    & Marcus, Corollary 4.4.9, and so an automorphism with inverse f.  The
    NO carries the injectivity pair, and neither the strong condition nor
    the section search runs."""

    def test_census_and_even_shift_maps_answer_with_a_pair(self, full2, even_shift, monkeypatch):
        census = [_census_map(full2, bits) for bits in range(256)]
        onto = [f for f in census if an.surjectivity(f).yes and not an.injectivity_family(f).injective]
        even = make_block_map(even_shift, even_shift, 2, dict(zip(even_shift.words(5), EVEN_ONTO_RULE)))
        assert len(onto) == 24 and an.is_transitive(even_shift) and not an.is_sft(even_shift).yes
        calls = []
        for name in ("strong_condition", "find_section"):
            real = getattr(cl, name)
            monkeypatch.setattr(cl, name, lambda *a, real=real, name=name, **k: calls.append(name)
                                or real(*a, **k))
        cases = [(f, K2) for f in onto] + [(f, M2) for f in onto[:3]] + [(even, K3)]
        verdicts = [cl.is_split_epic(f, cat) for f, cat in cases]
        assert calls == []
        for (f, _), verdict in zip(cases, verdicts):
            assert verdict.no and "Corollary 4.4.9" in verdict.note
            assert verdict.witness["pair"] == an.injectivity_family(f).pair
            recheck_pair(f, verdict.witness["pair"])
        for f in onto + [even]:
            assert not orc.brute_decide("split_epic", f, {"radius_bound": 1})

    def test_shrink_on_an_intransitive_source_keeps_its_section(self):
        import pathlib

        from sdcat.files import load_bmap

        f = load_bmap(str(pathlib.Path(__file__).parents[1] / "bench" / "data" / "cli" / "shrink.bmap"))
        assert f.source.language_equal(f.target) and not an.is_transitive(f.source)
        assert not an.injectivity_family(f).injective
        v = cl.is_split_epic(f, K1)
        assert v.yes and maps_equal(compose(f, v.certificate), identity_map(f.target))


class TestSplitMonic:
    def test_golden_inclusion_m2(self, golden_inclusion):
        v = cl.is_split_monic(golden_inclusion, M2)
        assert v.yes
        h = v.certificate
        assert h is not None and h.radius <= 1
        assert maps_equal(compose(h, golden_inclusion), identity_map(golden_inclusion.source))

    def test_xor2_not_split_monic(self, xor2):
        assert cl.is_split_monic(xor2, M2).no

    def test_period_obstruction(self, full2):
        # mixing SFT without fixed points: no symbol repeats
        y = make_presentation(["0", "1", "2"], "sft", [("0", "0"), ("1", "1"), ("2", "2")])
        assert an.is_mixing(y) and an.is_sft(y).yes
        assert not an.periods(y).contains(1)
        assert an.periods(y).contains(2)
        # an injection of the no-repeat shift into the full shift cannot
        # split: a retraction sends a fixed point to a fixed point, and the
        # full shift has one, the source none; this holds at every level
        full3 = full_shift(["0", "1", "2"])
        inc = make_block_map(y, full3, 0, {(a,): a for a in y.alphabet})
        for cat in (K2, K3, T2, T3, M2, M3):
            v = cl.is_split_monic(inc, cat)
            assert v.no and v.witness == {"period": 1}, cat
        # nor does the map out of the empty shift, for the same reason
        empty = empty_shift(["0", "1"])
        out = make_block_map(empty, full2, 0, {}, validate_image=False)
        for cat in (K2, K3):
            v = cl.is_split_monic(out, cat)
            assert v.no and v.witness == {"period": 1}, cat

    def test_m1_bijectivity(self, flip, xor2):
        assert cl.is_split_monic(flip, M1).yes
        assert cl.is_split_monic(xor2, M1).no

    def test_deep_retraction_search_ends_on_the_budget(self, even_shift):
        import time

        from sdcat.errors import BudgetExceeded, set_budget

        # injective, so K3 asks for a retraction full3 -> even shift, which
        # has thousands of windows to assign at radius 3
        full3 = full_shift(["0", "1", "2"])
        f = make_block_map(even_shift, full3, 1, dict(zip(even_shift.words(3), "1001212")))
        start = time.perf_counter()
        set_budget(3000)
        try:
            with pytest.raises(BudgetExceeded, match="retraction search"):
                cl.classify(f, K3)
        finally:
            set_budget(None)
        assert time.perf_counter() - start < 20

    def test_retraction_search_proves_none_up_to_the_radius_cap(self, even_shift):
        from sdcat.errors import set_budget

        # every radius up to the cap is searched to the end, and none has a
        # retraction; the image, the even shift again, is no subSFT of
        # full3, so the map is no regular mono and hence no split mono
        full3 = full_shift(["0", "1", "2"])
        f = make_block_map(even_shift, full3, 1, dict(zip(even_shift.words(3), "1001212")))
        set_budget(20_000)
        try:
            assert cl.find_retraction(f, radius_cap=3) is None
            got = cl.classify(f, K3)["split_monic"]
        finally:
            set_budget(None)
        assert got.no and got.witness == cl.is_regular_monic(f, K3).witness
        recheck_pumpable(got.witness, an.image(f), full3)

    def test_even_inclusion_is_no_regular_mono_so_no_split_mono(self, even_inclusion,
                                                                even_shift, full2):
        for cat in (K3, T3, M3):
            got = cl.is_split_monic(even_inclusion, cat)
            assert got.no and "a split mono is regular" in got.note, cat
            recheck_pumpable(got.witness, even_shift, full2)

    def test_golden_map_splits_by_the_extension_lemma(self, golden, full2):
        # injective, and the golden mean is a mixing SFT with every period
        # of full2, so a retraction exists, though none of radius 3 or less
        f = make_block_map(golden, full2, 2, dict(zip(golden.words(5), "1010101110100")))
        assert an.injectivity_family(f).injective and cl.find_retraction(f) is None
        for cat in (K2, K3, T3, M3):
            got = cl.is_split_monic(f, cat)
            assert got.yes and "Extension Lemma" in got.note and "radius <= 3" in got.note, cat
        h = cl.find_retraction(f, radius_cap=6)
        assert h is not None and h.radius == 6
        assert maps_equal(recheck_certificates(f, radius_cap=6)[1], h)

    def test_brute_retractions_agree_on_injective_maps(self, full2, full3, golden, even_shift):
        # every retraction of radius <= 1 of a map into full2 or the golden
        # mean, and of radius 0 of a map into full3, listed by the oracle:
        # none exists where the verdict is NO, and the verdict is YES
        # wherever one does
        import random

        per2 = make_presentation(["0", "1"], "sft", [("0", "0"), ("1", "1")])
        rng, seen = random.Random(7), []
        sources, targets = (full2, golden, even_shift, per2), ((full2, 1), (golden, 1), (full3, 0))
        while len(seen) < 120:
            x, (y, cap) = rng.choice(sources), rng.choice(targets)
            r = rng.randrange(2)
            try:
                f = make_block_map(x, y, r, {w: rng.choice(y.alphabet) for w in x.words(2 * r + 1)})
            except ValidationError:
                continue
            if not an.injectivity_family(f).injective:
                continue
            ident = identity_map(x)
            found = any(maps_equal(compose(h, f), ident) for rho in range(cap + 1)
                        for h in orc.enumerate_block_maps(orc.EnumerationSpec(y, x, rho)))
            got = cl.is_split_monic(f, K3)
            assert got.yes if found else not got.undecided
            if got.certificate is not None:
                assert maps_equal(compose(got.certificate, f), ident)
            seen.append((found, got.answer))
        assert set(seen) == {
            (True, "YES"), (False, "YES"), (False, "NO")}


class TestConstraintSearch:
    def test_depth_is_not_bounded_by_the_recursion_limit(self, full2):
        import sys

        # one-value domains on the 8,192 windows of the full 2-shift at
        # radius 6: a search far deeper than the recursion limit
        assert len(full2.words(13)) > 3 * sys.getrecursionlimit()
        g = cl._first_block_map(full2, full2, 6, lambda w: (w[6],), "section search")
        assert maps_equal(g, identity_map(full2))

    def test_each_value_tried_counts_against_the_budget(self, full2, even_shift):
        from sdcat.errors import BudgetExceeded, set_budget

        # maps full2 -> even shift of radius 1 that fix both uniform points
        # and try 1 before 0 elsewhere: none exists, and the search
        # backtracks through 36 values over the 8 windows to learn it
        def values(w):
            return tuple(set(w)) if len(set(w)) == 1 else ("1", "0")

        set_budget(100)
        try:
            with pytest.raises(BudgetExceeded, match="section search"):
                cl._first_block_map(full2, even_shift, 1, values, "section search")
        finally:
            set_budget(None)
        assert cl._first_block_map(full2, even_shift, 1, values, "section search") is None

    def test_the_order_is_fixed_before_the_unary_pruning(self, full2):
        # maps full2 -> x, x forbidding 22 and 01, at radius 0: window 1
        # has the smaller domain and goes first, taking 1, so window 0
        # takes 1.  Ordered after the self-loop drops 2 from window 0, the
        # search would take 0 for both windows
        x = make_presentation(("0", "1", "2"), "sft", [("2", "2"), ("0", "1")])
        doms = {("0",): ("2", "0", "1"), ("1",): ("1", "0")}
        g = cl._first_block_map(full2, x, 0, doms.__getitem__, "section search")
        assert g.rule_dict == {("0",): "1", ("1",): "1"}

    def test_pruned_section_search_fits_a_small_budget(self, full2):
        from sdcat.errors import BudgetExceeded, set_budget

        # rule 240, f(x)_i = x_{i-1}: its section needs block radius 2, and
        # the unpruned search tried more than 8,000 values on the way
        f = _census_map(full2, 240)
        set_budget(100)
        try:
            with pytest.raises(BudgetExceeded, match="section search"):
                cl.find_section(f, radius_cap=2)
            set_budget(1000)
            got = cl.find_section(_census_map(full2, 240), radius_cap=2)
        finally:
            set_budget(None)
        # the budget exit was not kept on the map
        want = cl.find_section(f, radius_cap=2)
        assert want is not None and got is not None
        assert (got.radius, got.rule_dict) == (want.radius, want.rule_dict)

    def test_each_section_radius_is_searched_once_per_map(self, full2, monkeypatch):
        real = cl._first_block_map
        sizes = []

        def counting(y, x, rho, values, what, point=None):
            if what == "section search":
                sizes.append(len(y.words(2 * rho + 1)))
            return real(y, x, rho, values, what, point)

        monkeypatch.setattr(cl, "_first_block_map", counting)
        # the caps that the split epic phases give the search in turn; an
        # automorphism such as rule 240 is decided by its inverse, with no
        # search, so the search is driven directly
        f = _census_map(full2, 240)
        found = [cl.find_section(f, radius_cap=cap) for cap in (0, 1, 2, 3)]
        assert found[:2] == [None, None] and found[2] == found[3] == li.inverse(f)
        # one search per radius: 2, 8 and 32 windows of the full 2-shift
        assert sizes == [2, 8, 32]

    def test_strong_condition_search_fits_the_default_budget(self):
        from sdcat.errors import DEFAULT_BUDGET, set_budget

        # every pair of its 363 words is constrained: a pruning pass over
        # all pairs of words and candidates ends this case on the default
        # budget, while the search on class sets tries one value per word
        full4, full3 = full_shift(("0", "1", "2", "3")), full_shift(("0", "1", "2"))
        f = make_block_map(full4, full3, 0, {("0",): "0", ("1",): "1", ("2",): "2", ("3",): "2"})
        set_budget(DEFAULT_BUDGET)
        try:
            assert cl.strong_condition(f, 5).holds
        finally:
            set_budget(None)


def _census_map(full2, bits):
    """Rule ``bits`` of the radius-1 binary census, a fresh map."""
    windows = full2.words(3)
    return make_block_map(full2, full2, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)})


class TestRegularEpic:
    def test_k_levels_reduce_to_surjectivity(self, xor3, golden_inclusion):
        assert cl.is_regular_epic(xor3, K2).yes
        assert cl.is_regular_epic(golden_inclusion, K3).no

    def test_xor2_regular_epic_in_m1_with_witness(self, xor2, flip):
        v = cl.is_regular_epic(xor2, M1, witness_endo=flip)
        assert v.yes

    def test_blank_cell_without_witness(self, xor2):
        assert cl.is_regular_epic(xor2, M1).undecided


class TestRegularMonic:
    def test_golden_inclusion_k2(self, golden_inclusion):
        v = cl.is_regular_monic(golden_inclusion, K2)
        assert v.yes and v.certificate["window"] == 2

    def test_even_inclusion_k3_fails(self, even_inclusion):
        v = cl.is_regular_monic(even_inclusion, K3)
        assert v.no

    def test_even_inclusion_m3_fails(self, even_inclusion):
        v = cl.is_regular_monic(even_inclusion, M3)
        assert v.no

    def test_non_injective_fails(self, xor2):
        assert cl.is_regular_monic(xor2, K2).no

    def test_t3_and_m3_accept_subsft_images(self, golden_inclusion):
        assert cl.is_regular_monic(golden_inclusion, M3).yes
        assert cl.is_regular_monic(golden_inclusion, T3).yes

    def test_census_automorphisms_read_the_target_as_image(self, full2, monkeypatch):
        # an injective endomorphism of a transitive shift is onto, so no
        # image is built, and the certificate is the one the image gives
        maps = [_census_map(full2, bits) for bits in (15, 51, 85, 170, 204, 240)]
        want = {an.is_subsft_of(an.image(f), f.target).certificate["window"] for f in maps}
        monkeypatch.setattr(an, "image", lambda f: pytest.fail("an image was built"))
        got = [cl.is_regular_monic(f, cat) for f in maps for cat in (K2, K3, T3, M3)]
        assert all(v.yes for v in got) and {v.certificate["window"] for v in got} == want == {1}

    def test_an_sft_image_is_regular_at_level_1_of_k(self):
        # the image of an SFT source is a subSFT of any shift that holds it:
        # the shift of the period-2 SFT, whose image has no single mixing
        # part, is regular monic in K1 by that test
        per2 = make_presentation(["0", "1"], "sft", [("0", "0"), ("1", "1")])
        got = cl.is_regular_monic(shift_power(per2, 1), K1)
        assert got.yes and got.certificate == {"window": 1}

    def test_marked_host_separates_k3_from_level3(self, odd_runs_in_marked_sofic):
        # regular monic in M3 and T3 through an enclosing subSFT, but the
        # image is not a subSFT of the host, so not regular monic in K3
        inc = odd_runs_in_marked_sofic
        assert an.is_mixing(inc.source) and an.is_mixing(inc.target)
        k3 = cl.is_regular_monic(inc, K3)
        assert k3.no and k3.witness is not None
        assert cl.is_regular_monic(inc, M3).yes
        assert cl.is_regular_monic(inc, T3).yes


class TestClassifyRow:
    def test_identity_all_yes(self, full2):
        row = cl.classify(identity_map(full2), K2)
        for key in ("epic", "monic", "split_epic", "split_monic", "regular_epic", "regular_monic"):
            assert row[key].yes, key

    def test_xor3_m2_row(self, xor3):
        row = cl.classify(xor3, M2)
        assert row["epic"].yes
        assert row["monic"].yes
        assert row["split_epic"].no
        assert row["split_monic"].no
        assert row["regular_epic"].undecided
        assert row["regular_monic"].no

    def test_golden_inclusion_m2_row(self, golden_inclusion):
        row = cl.classify(golden_inclusion, M2)
        assert row["epic"].no
        assert row["monic"].yes
        assert row["split_monic"].yes
        assert row["regular_monic"].yes
        assert row["split_epic"].no
        assert row["regular_epic"].no

    def test_implication_lattice_on_rows(self, full2, xor3, golden_inclusion):
        for f, cat in ((identity_map(full2), K2), (xor3, M2), (golden_inclusion, M2)):
            row = cl.classify(f, cat)
            assert not cl.implication_violations(row)


    def test_a_yes_fills_the_weaker_cells_its_rules_leave_open(self, full2, full3):
        # 0 -> 0, 1 -> 1, 2 -> 1 has a section, and no rule of its own
        # decides its regular epicness outside K2 and K3
        f = make_block_map(full3, full2, 0, {("0",): "0", ("1",): "1", ("2",): "1"})
        for cat in (T2, T3, M2, M3):
            row = cl.classify(f, cat)
            assert row["split_epic"].yes and cl.is_regular_epic(f, cat).undecided
            assert row["regular_epic"].yes and row["regular_epic"].note == (
                "split_epic implies regular_epic")

    def test_a_split_epi_is_a_regular_epi(self):
        # a split epi with section s is the coequalizer of (id, s . f)
        from sdcat import verdicts as v

        assert cl.implication_violations({"split_epic": v.yes(), "regular_epic": v.no()}) == [
            ("split_epic", "regular_epic")]
        assert cl.implication_violations({"split_monic": v.yes(), "regular_monic": v.no()}) == [
            ("split_monic", "regular_monic")]

    def test_lattice_violation_is_an_internal_error(self, xor3, monkeypatch):
        from sdcat import verdicts as v
        from sdcat.errors import InternalError

        monkeypatch.setattr(cl, "is_split_epic", lambda *a, **k: v.yes())
        monkeypatch.setattr(cl, "is_epic", lambda *a, **k: v.no())
        with pytest.raises(InternalError, match="implication lattice") as info:
            cl.classify(xor3, K3)
        assert info.value.exit_code == 70


class TestExistsMorphism:
    def test_golden_to_full(self, golden, full2):
        assert cl.exists_morphism(golden, full2).yes

    def test_fixed_point_into_fixed_point_free(self, trivial):
        y = make_presentation(["0", "1", "2"], "sft", [("0", "0"), ("1", "1"), ("2", "2")])
        assert an.is_mixing(y) and an.is_sft(y).yes
        v = cl.exists_morphism(trivial, y)
        assert v.no and v.witness["period"] == 1

    def test_empty_source(self, full2):
        from sdcat.core import empty_shift

        assert cl.exists_morphism(empty_shift(["0"]), full2).yes

    def test_non_mixing_target_only_necessity(self, golden, orbit01):
        v = cl.exists_morphism(orbit01, golden)
        # period condition holds (evens inside all), target mixing SFT: YES
        assert v.yes
        v2 = cl.exists_morphism(golden, orbit01)
        assert v2.no
