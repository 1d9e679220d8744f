"""Brute-force reference implementations."""

from sdcat import analysis as an
from sdcat import classify as cl
from sdcat import oracle as orc
from sdcat.core import identity_map, make_block_map
from sdcat.errors import ValidationError
from sdcat.limits import CategoryTag

K2 = CategoryTag.parse("K2")


class TestEnumeration:
    def test_radius0_full_to_full(self, full2):
        spec = orc.EnumerationSpec(full2, full2, radius=0)
        assert len(list(orc.enumerate_block_maps(spec))) == 4

    def test_radius1_full_to_full(self, full2):
        spec = orc.EnumerationSpec(full2, full2, radius=1)
        assert len(list(orc.enumerate_block_maps(spec))) == 256

    def test_full_to_golden_single_constant(self, full2, golden):
        spec = orc.EnumerationSpec(full2, golden, radius=0)
        maps = list(orc.enumerate_block_maps(spec))
        assert len(maps) == 1
        assert set(maps[0].rule_dict.values()) == {"0"}


class TestBruteDeciders:
    def test_xor3_surjective_and_not_injective(self, xor3):
        assert orc.brute_decide("epic", xor3)
        assert not orc.brute_decide("injective", xor3)
        assert orc.brute_decide("preinjective", xor3)

    def test_identity_everything(self, full2):
        ident = identity_map(full2)
        for prop in ("epic", "injective", "preinjective", "monic_k2"):
            assert orc.brute_decide(prop, ident)
        assert orc.brute_decide("split_epic", ident, {"radius_bound": 0})

    def test_xor2_not_split_epic_radius1(self, xor2):
        assert not orc.brute_decide("split_epic", xor2, {"radius_bound": 1})

    def test_compress_same_period_preimages(self, compress_map):
        assert orc.brute_decide("same_period_preimages", compress_map, {"period_bound": 6})

    def test_preimage_search_finds_existing(self, full2):
        ident = identity_map(full2)
        tup = {"u": ("0",), "v": ("0",), "w": ("1",), "a": ("0",), "b": ("0",)}
        z = orc.ep_preimage_search(ident, tup, pad=4)
        assert z is not None
        assert z.segment(-2, 3) == ("0", "0", "1", "0", "0")

    def test_preimage_search_rejects_xor2_tuple(self, xor2):
        tup = {"u": ("0",), "v": ("0",), "w": ("1",), "a": ("0",), "b": ("0",)}
        assert orc.ep_preimage_search(xor2, tup, pad=6) is None
        # with mismatched tails the preimage exists
        tup2 = {"u": ("0",), "v": ("0",), "w": ("1",), "a": ("0",), "b": ("1",)}
        assert orc.ep_preimage_search(xor2, tup2, pad=6) is not None


class TestCensusSlice:
    def test_engine_matches_brute_on_sample(self, full2):
        windows = full2.words(3)
        for bits in range(0, 256, 17):
            rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
            f = make_block_map(full2, full2, 1, rule)
            fam = an.injectivity_family(f)
            assert orc.brute_decide("epic", f) == cl.is_epic(f, K2).yes
            assert orc.brute_decide("injective", f) == fam.injective
            assert orc.brute_decide("preinjective", f) == an.is_preinjective(f).yes

    def test_census_generator_shape(self):
        rows = list(orc.census_radius1_binary(checks=("injective",)))
        assert len(rows) == 256
        injective_count = sum(1 for _, _, row in rows if row["injective"])
        # the reversible radius-1 binary rules: id, not, both shifts and
        # their negations
        assert injective_count == 6


class TestBruteSurjectiveOnGolden:
    """A binary map into the golden mean shift takes the path that looks up
    each target word among the image words."""

    def test_golden_target_agrees_with_the_engine(self, full2, golden):
        windows = full2.words(3)
        rising = make_block_map(full2, golden, 1, {w: str(int(w[:2] == ("0", "1"))) for w in windows})
        const = make_block_map(full2, golden, 1, {w: "0" for w in windows})
        assert orc.brute_surjective(rising)
        assert not orc.brute_surjective(const)
        for f in (rising, const):
            assert cl.is_epic(f, K2).yes == orc.brute_surjective(f)


def _final_length_surjective(f):
    """Reference: the word check at the default final length only."""
    import numpy as np

    src, tgt = f.source, f.target
    cover = max(1, len(src.words(2 * f.radius))) if f.radius else src.n_live()
    length = 2 ** min(cover, 4) + tgt.dfa.n + 1
    hit = np.bincount(orc._binary_image_words(f, length), minlength=2**length) > 0
    if tgt.dfa.n == 1 and tgt.count_words(1) == 2:
        return bool(hit.all())
    return all(hit[int("".join(w), 2)] for w in tgt.words(length))


class TestBruteSurjectiveStopsAtFirstMiss:
    def test_census_sample_matches_the_final_length_check(self, full2, golden):
        import random

        windows = full2.words(3)
        # plus two surjective rules and rule 8, which also maps into the golden mean
        sample = random.Random(2013).sample(range(256), 6) + [150, 204, 8]
        answers = set()
        for bits in sample:
            rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
            for tgt in (full2, golden):
                try:
                    f = make_block_map(full2, tgt, 1, rule)
                except ValidationError:
                    continue
                answers.add(orc.brute_surjective(f))
                assert orc.brute_surjective(f) == _final_length_surjective(f)
        assert answers == {True, False}
