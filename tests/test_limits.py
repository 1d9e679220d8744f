"""Limits and coproducts per category, with universal-property audits."""

import pytest

from sdcat import analysis as an
from sdcat import limits as li
from sdcat import oracle as orc
from sdcat.core import (
    compose,
    constant_map,
    identity_map,
    make_block_map,
    maps_equal,
    trivial_shift,
)
from sdcat.errors import ValidationError
from sdcat.limits import CategoryTag

K1, K2, K3 = (CategoryTag.parse(t) for t in ("K1", "K2", "K3"))
T2, T3 = CategoryTag.parse("T2"), CategoryTag.parse("T3")
M2, M3 = CategoryTag.parse("M2"), CategoryTag.parse("M3")
P2 = CategoryTag.parse("P2")


class TestTerminalInitial:
    def test_terminal_everywhere_but_level1(self):
        for tag in ("K2", "K3", "T2", "M3", "P2"):
            res = li.terminal(CategoryTag.parse(tag))
            assert res.exists
            assert res.object.words(2) == [("0", "0")]
        assert li.terminal(K1).status == "not-exists"

    def test_initial_empty_or_zero(self):
        assert li.initial(K2).object.is_empty()
        assert li.initial(CategoryTag.parse("M3")).object.is_empty()
        p = li.initial(P2)
        assert p.exists and not p.object.is_empty() and p.object.point == "0"

    def test_category_tag_parse(self):
        assert str(CategoryTag.parse("m2")) == "M2"
        with pytest.raises(ValidationError):
            CategoryTag.parse("Q4")


class TestProduct:
    def test_product_with_terminal_is_isomorphic(self, golden, trivial):
        res = li.product(golden, trivial)
        p1 = res.legs[0]
        fam = an.injectivity_family(p1)
        assert fam.injective
        assert an.image(p1).language_equal(golden)

    def test_golden_squared_counts(self, golden):
        res = li.product(golden, golden)
        assert res.object.count_words(2) == 9

    def test_empty_factor_gives_empty(self, golden):
        from sdcat.core import empty_shift

        res = li.product(golden, empty_shift(["0", "1"]))
        assert res.exists and res.object.is_empty()

    def test_projections_universal(self, golden):
        res = li.product(golden, golden)
        z = golden
        cones = []
        maps_z = list(orc.enumerate_block_maps(orc.EnumerationSpec(z, golden, radius=0)))
        for h1 in maps_z:
            for h2 in maps_z:
                cones.append((h1, h2))
        assert cones
        for h1, h2 in cones:
            u = li.mediate_product(res, h1, h2)
            assert maps_equal(compose(res.legs[0], u), h1)
            assert maps_equal(compose(res.legs[1], u), h2)
            # uniqueness among enumerated candidates
            count = 0
            for cand in orc.enumerate_block_maps(orc.EnumerationSpec(z, res.object, radius=u.radius)):
                if maps_equal(compose(res.legs[0], cand), h1) and maps_equal(
                    compose(res.legs[1], cand), h2
                ):
                    count += 1
            assert count == 1


class TestCoproduct:
    def test_disjoint_union_in_k2(self, golden, full3):
        res = li.coproduct(golden, full3, K2)
        assert res.exists
        assert len(res.object.alphabet) == 5
        assert len(an.constituents(res.object)) == 2
        i1, i2 = res.legs
        assert an.injectivity_family(i1).injective
        assert an.injectivity_family(i2).injective

    def test_empty_summand_collapses(self, golden):
        from sdcat.core import empty_shift

        res = li.coproduct(empty_shift(["0", "1"]), golden, K2)
        assert res.exists and res.object.language_equal(golden)

    def test_not_in_mixing_categories(self, golden):
        res = li.coproduct(golden, golden, M2)
        assert res.status == "not-exists"


class TestEqualizer:
    def test_three_point_equalizer_k2_vs_m2(self, eq_example_map, const0, trivial):
        eK = li.equalizer(eq_example_map, const0, K2)
        assert eK.exists and eK.object.count_words(3) == 3
        eM = li.equalizer(eq_example_map, const0, M2)
        assert eM.exists
        assert eM.object.words(2) == [("0", "0")]

    def test_equal_pair_gives_identity_inclusion(self, xor2, full2):
        res = li.equalizer(xor2, xor2, K2)
        assert res.exists and res.object.language_equal(full2)

    def test_two_mixing_constituents_fail_m2(self, xor2, const0):
        res = li.equalizer(xor2, const0, M2)
        assert res.status == "not-exists"

    def test_two_separated_fixed_points_fail_m3(self, xor2, const0):
        # the two fixed points live in disjoint constituents, so no larger
        # mixing subshift can contain both: refuted at level 3 as well
        res = li.equalizer(xor2, const0, M3)
        assert res.status == "not-exists"

    def test_t_categories(self, eq_example_map, const0):
        assert li.equalizer(eq_example_map, const0, T2).status == "not-exists"
        assert li.equalizer(eq_example_map, const0, T3).status == "not-exists"

    def test_m3_on_sofic_parallel_pair(self, even_shift, full2):
        # identity vs itself on a proper sofic shift: equalizer is everything
        ident = identity_map(even_shift)
        res = li.equalizer(ident, ident, M3)
        assert res.exists and res.object.language_equal(even_shift)

    def test_equalizer_leg_is_regular_monic_shape(self, eq_example_map, const0):
        res = li.equalizer(eq_example_map, const0, K2)
        inc = res.legs[0]
        assert an.injectivity_family(inc).injective
        assert an.is_subsft_of(an.image(inc), inc.target).yes

    def test_mediating_through_equalizer(self, eq_example_map, const0, full2):
        res = li.equalizer(eq_example_map, const0, K2)
        h = constant_map(full2, full2, "0")
        u = li.mediate_equalizer(res, h)
        assert maps_equal(compose(res.legs[0], u), h)


class TestPullback:
    def test_pullback_along_identity_is_graph(self, xor3, full2):
        res = li.pullback(xor3, identity_map(full2))
        p1 = res.legs[0]
        fam = an.injectivity_family(p1)
        assert fam.injective
        assert an.image(p1).language_equal(full2)

    def test_kernel_pair_equals_kernel_set(self, xor3):
        kp = li.kernel_pair(xor3)
        ker = an.kernel_set(xor3)
        assert kp.object.language_equal(ker.presentation)
        p1, p2 = kp.legs
        assert maps_equal(compose(xor3, p1), compose(xor3, p2))

    def test_pullback_of_constants_is_product(self, golden, full2, trivial):
        cx = constant_map(golden, trivial, "0")
        cy = constant_map(full2, trivial, "0")
        res = li.pullback(cx, cy)
        from sdcat.core import product_presentation

        assert res.object.language_equal(product_presentation(golden, full2))

    def test_projection_commutation(self, xor2, const0):
        res = li.pullback(xor2, const0)
        p1, p2 = res.legs
        assert maps_equal(compose(xor2, p1), compose(const0, p2))

    def test_mediating_cone(self, xor3, full2):
        kp = li.kernel_pair(xor3)
        cones = []
        for h in orc.enumerate_block_maps(orc.EnumerationSpec(full2, full2, radius=0)):
            if maps_equal(compose(xor3, h), compose(xor3, h)):
                cones.append((h, h))
        for h1, h2 in cones[:4]:
            u = li.pairing(h1, h2, kp.object)
            assert maps_equal(compose(kp.legs[0], u), h1)
            assert maps_equal(compose(kp.legs[1], u), h2)


class TestConnectingMap:
    def test_f_equals_g_gives_identity(self, xor2):
        u = li.connecting_map(xor2, xor2)
        assert u is not None
        assert maps_equal(u, identity_map(an.image(xor2)))

    def test_constant_target(self, xor2, const0, full2):
        u = li.connecting_map(xor2, const0)
        assert u is not None and u.radius == 0

    def test_identity_source_recovers_g(self, xor2, full2):
        u = li.connecting_map(identity_map(full2), xor2)
        assert u is not None and maps_equal(u, xor2)

    def test_no_kernel_inclusion_gives_none(self, const0, full2):
        assert li.connecting_map(const0, identity_map(full2)) is None

    def test_uniqueness(self, flip, xor2, full2):
        # Ker(xor2) contains the flip pairs: xor2 factors through the flip quotient
        u = li.connecting_map(identity_map(full2), xor2)
        f_cor = li.corestrict(identity_map(full2))
        count = 0
        for cand in orc.enumerate_block_maps(
            orc.EnumerationSpec(an.image(identity_map(full2)), full2, radius=1)
        ):
            if maps_equal(compose(cand, f_cor), li.corestrict(xor2, an.image(xor2))):
                count += 1
        assert count == 1


def _old_retraction_forced(f, rho):
    """Reference: the forced values of a retraction on image windows, as
    the retraction search computed them."""
    forced = {}
    big = rho + f.radius
    for xi in f.source.words(2 * big + 1):
        imgw = tuple(f.local(xi[i : i + f.width()]) for i in range(2 * rho + 1))
        c = xi[big]
        if forced.get(imgw, c) != c:
            return None
        forced[imgw] = c
    return forced


class TestForcedValues:
    def test_identity_matches_the_retraction_loop_on_the_census(self, full2):
        ident = identity_map(full2)
        windows = full2.words(3)
        for bits in range(256):
            f = make_block_map(full2, full2, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)})
            for rho in range(3):
                got, want = li.forced_values(f, ident, rho), _old_retraction_forced(f, rho)
                assert got == want
                assert got is None or list(got) == list(want)

    def test_points_are_kept_only_when_both_ends_are_pointed(self, full2, full2p, xor2):
        flip = make_block_map(full2p, full2p, 0, {("0",): "1", ("1",): "0"})
        assert not li.keeps_points(flip)
        assert li.keeps_points(xor2)
        assert li.keeps_points(make_block_map(full2p, full2, 0, {("0",): "1", ("1",): "0"}))
        assert li.keeps_points(identity_map(full2p))


class TestImageFactorization:
    def test_k3_always_factors(self, xor2_no000111):
        res = li.image_factorization(xor2_no000111, K3)
        assert res.exists
        e, m = res.legs
        assert maps_equal(compose(m, e), xor2_no000111)
        assert an.injectivity_family(m).injective

    def test_k2_sft_image(self, golden):
        ident = identity_map(golden)
        res = li.image_factorization(ident, K2)
        assert res.exists

    def test_k2_proper_sofic_image_fails(self, even_cover_map):
        img = an.image(even_cover_map)
        assert an.is_sft(img).no
        res = li.image_factorization(even_cover_map, K2)
        assert res.status == "not-exists"
        assert res.bound_used["witness"] is not None

    def test_level1_surjection(self, xor3):
        res = li.image_factorization(xor3, K1)
        assert res.exists


class TestSubobjectUnion:
    def test_self_union(self, golden, full2):
        inc = make_block_map(golden, full2, 0, {("0",): "0", ("1",): "1"})
        u = li.subobject_union(inc, inc)
        assert an.image(u).language_equal(golden)

    def test_two_fixed_points(self, full2, trivial):
        i0 = constant_map(trivial, full2, "0")
        t1 = trivial_shift("1")
        i1 = constant_map(t1, full2, "1")
        u = li.subobject_union(i0, i1)
        obj = u.source
        assert obj.contains_periodic(("0",)) and obj.contains_periodic(("1",))
        assert not obj.contains_word(("0", "1"))

    def test_golden_union_even(self, golden, even_shift, full2):
        ig = make_block_map(golden, full2, 0, {("0",): "0", ("1",): "1"})
        ie = make_block_map(even_shift, full2, 0, {("0",): "0", ("1",): "1"})
        u = li.subobject_union(ig, ie)
        obj = u.source
        for n in range(1, 7):
            want = sorted(set(golden.words(n)) | set(even_shift.words(n)))
            assert obj.words(n) == want

    def test_non_monic_rejected(self, xor2):
        with pytest.raises(ValidationError):
            li.subobject_union(xor2, xor2)


class TestLegality:
    def test_m_category_rejects_non_mixing(self, orbit01):
        with pytest.raises(ValidationError):
            li.check_object(M2, orbit01)

    def test_t_category_rejects_empty(self):
        from sdcat.core import empty_shift

        with pytest.raises(ValidationError):
            li.check_object(T2, empty_shift(["0"]))

    def test_level2_rejects_proper_sofic(self, even_shift):
        with pytest.raises(ValidationError):
            li.check_object(K2, even_shift)

    def test_level1_entropy_is_warning_only(self, x012):
        li.check_object(K1, x012)
        # the soft condition: a level-1 object is nominally of positive entropy
        assert an.is_countable(x012)

    def test_pointed_needs_points(self, full2, full2p):
        with pytest.raises(ValidationError):
            li.check_object(P2, full2)
        li.check_object(P2, full2p)
