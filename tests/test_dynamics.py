"""Endomorphism dynamics feeding the coequalizer engine."""

import pytest

from sdcat import analysis as an
from sdcat import colimits as co
from sdcat import dynamics as dy
from sdcat.core import (
    PeriodicPoint,
    compose,
    identity_map,
    make_block_map,
    maps_equal,
    pair_symbol,
    product_presentation,
    reduce_radius,
    shift_power,
)
from sdcat.errors import BudgetExceeded, ValidationError, set_budget


@pytest.fixture(scope="module")
def mixed_track_map(full2):
    # flips track 1 exactly where track 2 reads 1
    pa = product_presentation(full2, full2)
    rule = {((a, b),): pair_symbol(str(1 - int(a)) if b == "1" else a, b) for a, b in pa.alphabet}
    return make_block_map(pa, pa, 0, rule)


class TestReversible:
    def test_shift_with_inverse(self, sigma, full2):
        v = dy.is_reversible(sigma)
        assert v.yes
        inv = v.certificate
        assert maps_equal(compose(inv, sigma), identity_map(full2))
        assert maps_equal(compose(sigma, inv), identity_map(full2))

    def test_flip_self_inverse(self, flip):
        v = dy.is_reversible(flip)
        assert v.yes and maps_equal(v.certificate, flip)

    def test_xor2_two_to_one(self, xor2):
        assert dy.is_reversible(xor2).no

    def test_an_inverse_past_the_budget_names_the_bound(self, full2):
        # the inverse of the shift by three is read off 2^13 source words
        f = shift_power(full2, 3)
        set_budget(5000)
        try:
            v = dy.is_reversible(f)
        finally:
            set_budget(None)
        assert v.yes and v.certificate is None
        assert v.bound_used == {"radius_cap": 8, "budget": 5000}
        assert v.note == "bijective; inverse not read off: word enumeration: size 8192 exceeds budget 5000"

    def test_non_endomorphism_rejected(self, xor2_no000111):
        with pytest.raises(ValidationError):
            dy.is_reversible(xor2_no000111)


class TestEventualPeriodicity:
    def test_flip(self, flip):
        ep = dy.eventual_periodicity(flip)
        assert (ep.preperiod, ep.period) == (0, 2)

    def test_constant(self, const0):
        ep = dy.eventual_periodicity(const0)
        assert (ep.preperiod, ep.period) == (1, 1)

    def test_identity(self, full2):
        ep = dy.eventual_periodicity(identity_map(full2))
        assert (ep.preperiod, ep.period) == (0, 1)

    def test_xor2_never_repeats(self, xor2):
        ep = dy.eventual_periodicity(xor2, cap=5)
        assert ep.status == "not-found-below-cap"

    def test_found_pair_verifies(self, flip, and_rule, const0, full2):
        for f in (flip, const0):
            ep = dy.eventual_periodicity(f)
            fk = dy.power(f, ep.preperiod)
            fkp = dy.power(f, ep.preperiod + ep.period)
            assert maps_equal(fk, fkp)
            for q in range(1, ep.period):
                if ep.period % q == 0:
                    assert not maps_equal(fk, dy.power(f, ep.preperiod + q))


class TestVisiblyEventuallyPeriodic:
    def test_flip_yes(self, flip):
        ep = dy.eventual_periodicity(flip)
        assert dy.is_visibly_eventually_periodic(flip, ep).yes

    def test_identity_yes(self, full2):
        f = identity_map(full2)
        assert dy.is_visibly_eventually_periodic(f, dy.eventual_periodicity(f)).yes

    def test_mixed_track_no_with_witness(self, mixed_track_map):
        ep = dy.eventual_periodicity(mixed_track_map)
        assert (ep.preperiod, ep.period) == (0, 2)
        v = dy.is_visibly_eventually_periodic(mixed_track_map, ep)
        assert v.no
        word = tuple(v.witness["periodic_word"])
        # the witness point has eventual period 1
        p = PeriodicPoint(word)
        src = mixed_track_map.source
        assert p.in_shift(src)
        from sdcat.core import apply_map

        assert apply_map(mixed_track_map, p).same_point(p)


class TestOrbitSubshift:
    def test_flip_quotient_matches_xor2_kernel(self, flip, xor2):
        target, g = co.orbit_subshift(flip, 0, 2)
        assert maps_equal(compose(g, flip), g)
        assert an.kernel_set(g).presentation.language_equal(an.kernel_set(xor2).presentation)

    def test_identity_is_its_own_quotient(self, full2):
        target, g = co.orbit_subshift(identity_map(full2), 0, 1)
        assert an.injectivity_family(g).injective

    def test_rotation_kernel_is_orbit_relation(self, full3):
        rot = make_block_map(full3, full3, 0, {("0",): "1", ("1",): "2", ("2",): "0"})
        target, g = co.orbit_subshift(rot, 0, 3)
        assert maps_equal(compose(g, rot), g)
        ker = an.kernel_set(g).presentation
        # kernel identifies exactly the rotation orbit pairs on periodic points
        p = PeriodicPoint(("0",))
        from sdcat.core import apply_map

        for shift_word, expected in ((("0", "0"), True), (("1", "2"), True), (("0", "1"), False)):
            tok = tuple(pair_symbol(a, b) for a, b in zip(("0", "0"), shift_word))
        for c, expected in (("0", True), ("1", True), ("2", True)):
            tok = (pair_symbol("0", c),)
            assert ker.contains_periodic(tok) == expected
        # non-orbit pair: x = 000..., y = 010... differ beyond rotation
        tok = (pair_symbol("0", "0"), pair_symbol("0", "1"))
        assert not ker.contains_periodic(tok)


class TestChainTransitivity:
    def test_shift_level3(self, sigma):
        assert dy.chain_transitive_level(sigma, 3)

    def test_identity_level1_fails(self, full2):
        assert not dy.chain_transitive_level(identity_map(full2), 1)

    def test_flip_levels(self, flip):
        assert dy.chain_transitive_level(flip, 1)
        assert not dy.chain_transitive_level(flip, 2)

    def test_antitone_on_instances(self, sigma, flip, xor2, and_rule, full2):
        for f in (sigma, flip, xor2, and_rule, identity_map(full2)):
            flags = [dy.chain_transitive_level(f, n) for n in range(1, 5)]
            for a, b in zip(flags, flags[1:]):
                assert a or not b  # once false, stays false


class TestSpreadingNilpotent:
    def test_and_rule_spreads_zero(self, and_rule):
        assert dy.spreading_state(and_rule) == "0"

    def test_identity_neither(self, full2):
        f = identity_map(full2)
        assert dy.spreading_state(f) is None and dy.nilpotency_index(f) is None

    def test_constant_nilpotent(self, const0):
        assert dy.nilpotency_index(const0) == 1

    def test_rule_8_is_nilpotent_at_index_2(self, full2):
        # 011 -> 1: one step leaves isolated 1s, the second clears them
        rule8 = make_block_map(full2, full2, 1, {w: "1" if w == ("0", "1", "1") else "0" for w in full2.words(3)})
        assert dy.nilpotency_index(rule8) == 2

    def test_periodic_refutation_matches_the_composition_loop(self, full2):
        windows = full2.words(3)
        for bits in range(256):
            f = make_block_map(full2, full2, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)})
            assert dy.nilpotency_index(f, cap=2) == _old_nilpotency_index(f, 2), bits
        # the nilpotent radius-1 rules, which no period refutes
        for bits in (0, 8, 64, 239, 253, 255):
            f = make_block_map(full2, full2, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)})
            assert dy.nilpotency_index(f, cap=4) == _old_nilpotency_index(f, 4) is not None, bits

    def test_invariant_maps_of_spreading_are_constant(self, and_rule, full2, full3):
        # every radius-1 map into a 3-symbol target that absorbs the AND rule
        # is constant
        from sdcat import oracle as orc

        found = 0
        for h in orc.enumerate_block_maps(orc.EnumerationSpec(full2, full3, radius=1)):
            if maps_equal(compose(h, and_rule), h):
                found += 1
                assert len(set(h.rule_dict.values())) == 1
        assert found == 3


def _old_nilpotency_index(f, cap):
    """Reference: the loop over the images of the powers alone, each power
    composed from the last."""
    current = f.source
    fr = f
    for n in range(1, cap + 1):
        img = an.image(fr)
        if img.n_live() == 1 and len([a for a in img.alphabet if img.contains_word((a,))]) == 1 \
                and img.count_words(2) == 1:
            return n
        if img.language_equal(current):
            return None
        current = img
        try:
            fr = reduce_radius(compose(f, fr))
        except BudgetExceeded:
            return None
    return None


class TestPowers:
    @pytest.mark.parametrize("rule", [
        lambda w: "1" if w == ("0", "1", "1") else "0",  # nilpotent at 2: f^2 = f^3
        lambda w: str(1 - int(w[1])),  # the flip: f^0 = f^2
    ])
    def test_each_power_is_composed_once(self, full2, monkeypatch, rule):
        composed = []
        real = dy.compose
        monkeypatch.setattr(dy, "compose", lambda g, h: composed.append(h) or real(g, h))
        # a fresh map, so no power is kept from another test
        f = make_block_map(full2, full2, 1, {w: rule(w) for w in full2.words(3)})
        ep = dy.eventual_periodicity(f, cap=6)
        dy.nilpotency_index(f, cap=4)
        assert dy.is_visibly_eventually_periodic(f, ep).yes
        dy.eventual_periodicity(f, cap=6)
        assert composed and all(h is dy.power(f, k) for k, h in enumerate(composed))


class TestVisiblyBlocking:
    def test_identity_blocks_everything(self, full2):
        assert dy.visibly_blocking(identity_map(full2), [("0",)]).yes

    def test_shift_leaks(self, sigma):
        assert dy.visibly_blocking(sigma, [("0",)]).no

    def test_flip_violates_invariance(self, flip):
        v = dy.visibly_blocking(flip, [("0",)])
        assert v.no and v.witness["condition"] == 1

    def test_radius0_maps_block_trivially(self, flip):
        # a radius-0 map transmits nothing, so any invariant set blocks
        v = dy.visibly_blocking(flip, [("0",), ("1",)], depth=2)
        assert v.yes

    def test_xor2_crosses_despite_invariance(self, xor2):
        v = dy.visibly_blocking(xor2, [("0",), ("1",)], depth=2)
        assert v.no and v.witness["condition"] == 2

    def test_words_are_charged_as_listed(self, golden):
        # the 19-symbol windows of depth 6 are 10,946 golden-mean words,
        # well inside the default budget, though 2^19 strings are not
        v = dy.visibly_blocking(shift_power(golden, 1), [("0",), ("1",)], depth=6)
        assert v.no and v.witness == {"condition": 2, "side": "left", "depth": 2,
                                      "window": ("0",)}

    def test_mirror_and_its_powers_are_built_once_per_map(self, full2, monkeypatch):
        # census rule 25 leaks on the left at depth 2, so the first call
        # composes f and its mirror at depths 1 and 2; the mirror is kept
        # on the map, and with it the powers kept on the mirror
        rule = {w: str(25 >> i & 1) for i, w in enumerate(full2.words(3))}
        f = make_block_map(full2, full2, 1, rule)
        composed = []
        monkeypatch.setattr(dy, "compose", lambda *maps: composed.append(maps) or compose(*maps))
        counts, verdicts = [], []
        for _ in range(3):
            before = len(composed)
            verdicts.append(dy.visibly_blocking(f, [("0",), ("1",)], depth=3))
            counts.append(len(composed) - before)
        assert counts == [4, 0, 0]
        assert verdicts[0].no and all(v.witness == verdicts[0].witness for v in verdicts)

    def test_first_leak_by_depth_is_reported(self, golden):
        # the left side leaks at depth 2, before the right side's words at
        # depth 9 (514,229 of 28 symbols) would outgrow the budget
        v = dy.visibly_blocking(shift_power(golden, 1), [("0",), ("1",)], depth=9)
        assert v.no and v.witness == {"condition": 2, "side": "left", "depth": 2,
                                      "window": ("0",)}
