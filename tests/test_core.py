"""Shift representations, points, and block map algebra."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sdcat.core import (
    EventuallyPeriodicPoint,
    PeriodicPoint,
    _block_conjugacy,
    apply_map,
    apply_map_ep,
    compose,
    empty_shift,
    full_shift,
    identity_map,
    image_word,
    make_block_map,
    make_presentation,
    maps_equal,
    mirror_map,
    mirror_presentation,
    recode_to_symbol_map,
    reduce_radius,
    trivial_shift,
)
from sdcat.errors import BudgetExceeded, ValidationError, set_budget

from conftest import recheck_garden_of_eden, seeded_onto_maps


def brute_sft_words(alphabet, forbidden, n, pad=6):
    """Independent enumeration of B_n for an SFT given by forbidden words:
    a word counts when some padding on both sides stays clean."""
    forbidden = [tuple(f) for f in forbidden]

    def clean(w):
        return not any(
            w[i : i + len(f)] == f for f in forbidden for i in range(len(w) - len(f) + 1)
        )

    out = []
    for w in itertools.product(alphabet, repeat=n):
        good = False
        for left in itertools.product(alphabet, repeat=pad):
            if good:
                break
            if not clean(left + w):
                continue
            for right in itertools.product(alphabet, repeat=pad):
                if clean(left + w + right):
                    good = True
                    break
        if good:
            out.append(w)
    return out


class TestMakePresentation:
    def test_golden_mean_b2(self, golden):
        assert golden.words(2) == [("0", "0"), ("0", "1"), ("1", "0")]

    def test_trivial_single_point(self):
        t = make_presentation(["0"], "sft", [])
        assert t.words(3) == [("0", "0", "0")]
        assert t.contains_periodic(("0",))

    def test_all_symbols_forbidden_is_empty(self):
        e = make_presentation(["0", "1"], "sft", [("0",), ("1",)])
        assert e.is_empty()
        assert e.words(1) == []

    def test_graph_vs_forbidden_languages_agree(self, golden):
        graph = make_presentation(
            ["0", "1"], "graph",
            (["u", "v"], [("u", "u", "0"), ("u", "v", "1"), ("v", "u", "0")]),
        )
        for n in range(1, 9):
            assert graph.words(n) == golden.words(n)

    def test_languages_match_brute_enumeration(self):
        cases = [
            (["0", "1"], [("1", "1")]),
            (["0", "1"], [("0", "0", "0"), ("1", "1", "1")]),
            (["0", "1", "2"], [("1", "0"), ("2", "0"), ("2", "1")]),
        ]
        for alphabet, forbidden in cases:
            x = make_presentation(alphabet, "sft", forbidden)
            for n in range(1, 5):
                assert x.words(n) == sorted(brute_sft_words(alphabet, forbidden, n))

    def test_bad_graph_label_rejected(self):
        with pytest.raises(ValidationError):
            make_presentation(["0"], "graph", (["u"], [("u", "u", "9")]))

    def test_tuple_symbols_are_checked_by_their_parts(self):
        # a derived symbol stays a tuple; one that mixes with strings, or
        # holds a part that is no symbol, is refused before any sorting
        assert full_shift([("0", ("1", "2")), ("1", ("0", "0"))]).alphabet[0] == ("0", ("1", "2"))
        for alphabet in ([("0", "1"), "2"], [("0", "1"), ("0", ("1", "1"))], [("0", 1)], [()]):
            with pytest.raises(ValidationError):
                full_shift(alphabet)

    def test_point_must_be_uniform(self, golden):
        with pytest.raises(ValidationError):
            golden.with_point("1")
        assert golden.with_point("0").point == "0"


class TestLongWindows:
    def test_words_of_a_long_length(self):
        # the word walk keeps a stack: no recursion once per symbol
        assert trivial_shift("0").words(1500) == [("0",) * 1500]

    def test_negative_radius_rejected(self):
        x = full_shift(["0", "1"])
        with pytest.raises(ValidationError):
            make_block_map(x, x, -1, {})


class TestApplyMap:
    def test_xor3_on_0110(self, xor3):
        out = apply_map(xor3, PeriodicPoint(("0", "1", "1", "0")))
        assert out.word == ("1", "0", "0", "1")

    def test_identity_fixes_points(self, golden):
        ident = identity_map(golden)
        p = PeriodicPoint(("0", "1"))
        assert apply_map(ident, p).same_point(p)

    def test_xor2_fixes_zero(self, xor2):
        z = PeriodicPoint(("0",))
        assert apply_map(xor2, z).same_point(z)

    def test_point_outside_source_rejected(self, golden):
        ident = identity_map(golden)
        with pytest.raises(ValidationError):
            apply_map(ident, PeriodicPoint(("1", "1")))

    def test_commutes_with_shift(self, xor3, full2):
        for word in [("0", "1", "1", "0"), ("1", "0", "1"), ("1",), ("0", "1")]:
            for phase in range(len(word)):
                p = PeriodicPoint(word, phase)
                shifted = PeriodicPoint(word, phase + 1)
                left = apply_map(xor3, shifted)
                right = apply_map(xor3, p)
                assert left.segment(0, 8) == tuple(right.at(i + 1) for i in range(8))

    def test_windows_read_the_coordinates_one_by_one(self, full2):
        # segments and the images of both point kinds, against a reference
        # that reads every coordinate of every window through at()
        rnd = random.Random(3)

        def word(k):
            return tuple(rnd.choice("01") for _ in range(k))

        for r in (0, 1, 2):
            f = make_block_map(full2, full2, r, {w: rnd.choice("01") for w in full2.words(2 * r + 1)})
            for _ in range(100):
                p = PeriodicPoint(word(rnd.randint(1, 5)), rnd.randint(-9, 9))
                e = EventuallyPeriodicPoint(word(rnd.randint(1, 4)), word(rnd.randint(0, 4)),
                                            word(rnd.randint(1, 4)), rnd.randint(-5, 5))
                lo, hi = rnd.randint(-12, 12), rnd.randint(-12, 14)
                for x, image in ((p, apply_map(f, p)), (e, apply_map_ep(f, e))):
                    assert x.segment(lo, hi) == tuple(x.at(i) for i in range(lo, hi))
                    assert image.segment(-15, 15) == tuple(
                        f.local(tuple(x.at(i + k) for k in range(-r, r + 1))) for i in range(-15, 15))

    def test_image_word_reads_the_windows_of_the_repetition(self, full2):
        # the map to the higher block shift outputs each window itself, so
        # its image word is the line of windows that ``image_word`` cut,
        # here against the segment of the periodic point, also for words
        # shorter than the radius
        for r in range(4):
            to_blocks, w = _block_conjugacy(full2, 2 * r + 1)[0], 2 * r + 1
            for n in range(1, 9):
                for word in itertools.product("01", repeat=n):
                    line = PeriodicPoint(word).segment(-r, n + r)
                    assert image_word(to_blocks, word) == tuple(line[i : i + w] for i in range(n))


class TestCompose:
    def test_identity_is_neutral(self, xor2, full2):
        assert maps_equal(compose(identity_map(full2), xor2), xor2)
        assert maps_equal(compose(xor2, identity_map(full2)), xor2)

    def test_xor2_squared(self, xor2, full2):
        ref = make_block_map(
            full2, full2, 2,
            {w: str((int(w[2]) + int(w[4])) % 2) for w in full2.words(5)},
        )
        assert maps_equal(compose(xor2, xor2), ref)

    def test_constant_absorbs(self, const0, xor3, full2):
        assert maps_equal(compose(const0, xor3), const0)

    def test_domain_mismatch_rejected(self, golden, xor2, full2):
        inc = make_block_map(golden, full2, 0, {("0",): "0", ("1",): "1"})
        from sdcat.errors import DomainMismatch

        with pytest.raises(DomainMismatch):
            compose(inc, xor2)

    def test_associative_on_samples(self, full2, xor2, xor3, flip, sigma):
        maps = [xor2, xor3, flip, sigma]
        for f, g, h in itertools.product(maps, repeat=3):
            assert maps_equal(compose(compose(h, g), f), compose(h, compose(g, f)))


class TestMapsEqual:
    def test_padding_invariance(self, xor2, full2):
        padded = make_block_map(full2, full2, 2, xor2.padded_rule(2))
        assert maps_equal(xor2, padded)

    def test_distinct_maps(self, xor2, full2):
        assert not maps_equal(xor2, identity_map(full2))

    def test_rules_differing_off_language_are_equal(self, golden):
        # two radius-1 rules that differ only on words containing 11
        base = {w: w[1] for w in golden.words(3)}
        f = make_block_map(golden, golden, 1, base)
        g = make_block_map(golden, golden, 1, dict(base))
        assert maps_equal(f, g)
        assert maps_equal(f, identity_map(golden))


class TestOneOrNoWords:
    """The trivial shift has one word of each length and the empty shift
    none; every rule is still a tuple of one symbol per word."""

    @pytest.mark.parametrize("x", [trivial_shift("0"), empty_shift(["0", "1"])], ids=["trivial", "empty"])
    def test_gathers_give_one_symbol_per_word(self, x):
        def check(f):
            assert isinstance(f.values, tuple) and len(f.values) == len(x.words(f.width()))
            assert set(f.values) <= set(x.alphabet)
            return f

        narrow = check(make_block_map(x, x, 0, {w: w[0] for w in x.words(1)}))
        wide = check(make_block_map(x, x, 1, {w: w[1] for w in x.words(3)}))
        for g, f in itertools.product((narrow, wide), repeat=2):
            composite = check(compose(g, f))
            assert composite.radius == g.radius + f.radius
            assert maps_equal(composite, narrow) and maps_equal(wide, composite)
        assert maps_equal(narrow, wide) and maps_equal(wide, narrow) and maps_equal(wide, wide)
        for f in (narrow, wide):
            assert f.padded_rule(2) == {w: w[2] for w in x.words(5)}


class TestMirror:
    def test_golden_is_reversal_symmetric(self, golden):
        assert mirror_presentation(golden).language_equal(golden)

    def test_012_reverses_to_210(self, x012):
        m = mirror_presentation(x012)
        assert m.contains_word(("2", "1", "0"))
        assert not m.contains_word(("0", "1", "2"))

    def test_involution_on_maps(self, xor2):
        assert maps_equal(mirror_map(mirror_map(xor2)), xor2)

    def test_mirror_is_functorial(self, xor2, xor3):
        lhs = mirror_map(compose(xor3, xor2))
        rhs = compose(mirror_map(xor3), mirror_map(xor2))
        assert maps_equal(lhs, rhs)


class TestRecode:
    def test_radius0_unchanged(self, flip):
        f0, to_b, from_b = recode_to_symbol_map(flip)
        assert f0 is flip

    def test_xor2_conjugacy_square(self, xor2, full2):
        f0, to_b, from_b = recode_to_symbol_map(xor2)
        assert f0.radius == 0
        assert len(f0.source.alphabet) == 8
        assert maps_equal(compose(f0, to_b), xor2)
        assert maps_equal(compose(from_b, to_b), identity_map(full2))
        assert maps_equal(compose(to_b, from_b), identity_map(f0.source))

    def test_golden_identity_recode(self, golden):
        ident = make_block_map(golden, golden, 1, {w: w[1] for w in golden.words(3)})
        f0, to_b, from_b = recode_to_symbol_map(ident)
        assert len(f0.source.alphabet) == 5  # |B_3(golden)|
        from sdcat.core import image_presentation

        assert image_presentation(f0).language_equal(golden)


@pytest.fixture(scope="module")
def flip_quotient():
    """A shift over the orbit sets of flip on 3-words, ``{000,111}``,
    ``{001,110}``, ...: symbols that hold commas and brackets."""
    return full_shift(["{000,111}", "{001,110}", "{010,101}", "{011,100}"])


class TestDerivedTokens:
    # symbols that hold commas, bars and brackets are read back through the
    # table that made their derived tokens, never by splitting strings
    def test_identity_on_orbit_tokens_is_injective(self, flip_quotient):
        from sdcat import analysis as an
        from sdcat import classify as cl
        from sdcat.limits import CategoryTag

        assert any("," in a for a in flip_quotient.alphabet)
        ident = identity_map(flip_quotient)
        assert an.injectivity_family(ident).injective
        assert cl.is_monic(ident, CategoryTag.parse("K3")).yes

    def test_product_and_kernel_pair_on_orbit_tokens(self, flip_quotient):
        from sdcat import limits as li

        pr = li.product(flip_quotient, flip_quotient)
        assert pr.exists and len(pr.object.alphabet) == len(flip_quotient.alphabet) ** 2
        ident = identity_map(flip_quotient)
        diagonal = li.mediate_product(pr, ident, ident)
        assert all(maps_equal(compose(leg, diagonal), ident) for leg in pr.legs)
        assert li.kernel_pair(identity_map(flip_quotient)).exists

    def test_classify_the_shift_on_nested_block_tokens(self, full2):
        from sdcat import classify as cl
        from sdcat.core import higher_block_presentation, shift_power
        from sdcat.limits import CategoryTag

        xb = higher_block_presentation(full2, 2)
        row = cl.classify(shift_power(xb, 1), CategoryTag.parse("K2"))
        assert row["epic"].yes and row["injective"].yes and row["split_epic"].yes

    def test_colliding_spellings_get_answers(self):
        from sdcat import classify as cl
        from sdcat.core import product_presentation
        from sdcat.limits import CategoryTag

        # (0,1,1) spells both pairs (0, 1,1) and (0,1, 1), and a|a|a two
        # windows of a and a|a; as values they are distinct symbols
        pr = product_presentation(full_shift(["0", "0,1"]), full_shift(["1", "1,1"]))
        assert len(set(pr.alphabet)) == 4 and pr.is_full()
        x = full_shift(["a", "a|a"])
        ident = make_block_map(x, x, 1, {w: w[1] for w in x.words(3)})
        row = cl.classify(ident, CategoryTag.parse("K2"))
        assert row["injective"].yes and row["epic"].yes and row["split_epic"].yes

    def test_disjoint_union_of_pair_and_plain_symbols(self):
        from sdcat.core import disjoint_union, golden_mean, product_presentation

        # pair symbols do not sort against strings, so both sides are tagged
        g = golden_mean()
        gg = product_presentation(g, g)
        u, lmap, rmap = disjoint_union(gg, g)
        assert set(u.alphabet) == {("L", t) for t in gg.alphabet} | {("R", a) for a in g.alphabet}
        assert lmap[("0", "1")] == ("L", ("0", "1")) and rmap["1"] == ("R", "1")
        assert u.count_words(2) == gg.count_words(2) + g.count_words(2)


class TestPoints:
    def test_ep_point_membership(self, even_shift):
        assert EventuallyPeriodicPoint(("0",), ("1", "1"), ("0",)).in_shift(even_shift)
        assert not EventuallyPeriodicPoint(("1",), ("0",), ("1",)).in_shift(even_shift)

    def test_ep_same_point(self):
        a = EventuallyPeriodicPoint(("0",), ("1",), ("0",))
        b = EventuallyPeriodicPoint(("0", "0"), ("1",), ("0", "0"))
        assert a.same_point(b)


class TestReduceRadius:
    def test_padded_rule_reduces_back(self, xor2, full2):
        padded = make_block_map(full2, full2, 3, xor2.padded_rule(3))
        red = reduce_radius(padded)
        assert red.radius == 1
        assert maps_equal(red, xor2)

    def test_flip_squared_reduces_to_identity(self, flip, full2):
        sq = reduce_radius(compose(flip, flip))
        assert sq.radius == 0
        assert maps_equal(sq, identity_map(full2))


class TestDerivedObjects:
    def test_image_and_kernel_are_built_once(self, full2, golden, monkeypatch):
        from sdcat import analysis as an
        from sdcat import core

        built = []
        real = core.presentation_from_nfa

        def counting(alphabet, nfa, *rest):
            built.append(nfa)
            return real(alphabet, nfa, *rest)

        monkeypatch.setattr(core, "presentation_from_nfa", counting)
        # isolated 1s: a 1 is never followed by a 1, so the image is in the golden mean
        rule = {w: str(int(w == ("0", "1", "0"))) for w in full2.words(3)}
        f = make_block_map(full2, golden, 1, rule)
        assert built == []  # inclusion is validated without an image
        assert core.image_presentation(f) is f.image
        assert len(built) == 1
        for _ in range(2):
            assert core.image_presentation(f) is f.image
            assert an.kernel_set(f).presentation is f.kernel
        assert len(built) == 2  # plus the kernel
        # the caches are not fields: equality and hashing see only the rule
        g = make_block_map(full2, golden, 1, rule, validate_image=False)
        assert f == g and hash(f) == hash(g)

    def test_each_window_graph_is_built_once_per_shift_and_width(self, monkeypatch):
        from collections import defaultdict

        from sdcat import classify as cl
        from sdcat import core
        from sdcat.limits import CategoryTag

        # every graph handed out, by shift and width: a graph built again
        # would be a second object in its list
        handed = defaultdict(list)
        real = core._window_graph
        monkeypatch.setattr(core, "_window_graph",
                            lambda x, w: handed[id(x), w].append(real(x, w)) or handed[id(x), w][-1])
        # a fresh shift, so no graph is kept from another test
        x = full_shift(("0", "1"))
        for bits in (30, 90, 232):
            rule = {w: str(bits >> i & 1) for i, w in enumerate(x.words(3))}
            cl.classify(make_block_map(x, x, 1, rule), CategoryTag.parse("K2"))
        assert len(handed[id(x), 3]) > 1
        assert all(g is graphs[0] for graphs in handed.values() for g in graphs)

    def test_onto_maps_share_one_higher_block_recoding(self, monkeypatch):
        from sdcat import classify as cl
        from sdcat import core
        from sdcat.limits import CategoryTag

        built = []
        real = core.presentation_from_nfa

        def counting(alphabet, nfa, *rest):
            # width-3 blocks, where kernel pairs are 2-tuples
            if all(isinstance(a, tuple) and len(a) == 3 for a in alphabet):
                built.append(alphabet)
            return real(alphabet, nfa, *rest)

        monkeypatch.setattr(core, "presentation_from_nfa", counting)
        # seeded maps out of a fresh shift, so no recoding is kept from
        # another test; they are onto another shift, so the strong
        # condition recodes them
        x = full_shift(("0", "1", "2"))
        pairs = set()
        for f in seeded_onto_maps(x, full_shift(("0", "1"))):
            cl.classify(f, CategoryTag.parse("K2"))
            if cl._symbol_recoding.key in vars(f):
                pairs.add(tuple(map(id, cl._symbol_recoding(f)[1:3])))
        # the width-3 higher block shift is built once, and every map that
        # recodes reads the one conjugacy pair kept with it
        assert len(built) == 1 and len(pairs) == 1
        to_blocks, from_blocks = core._block_conjugacy(x, 3)
        assert pairs == {(id(to_blocks), id(from_blocks))}
        assert to_blocks.target is core.higher_block_presentation(x, 3) is from_blocks.source

    def test_window_edges_are_kept_tuples_per_width(self):
        from sdcat import core

        x = core.golden_mean()
        for w in (1, 2, 3):
            nodes, edges = core.window_graph(x, w)
            assert core.window_graph(x, w)[1] is edges
            assert isinstance(edges, tuple)
            assert all(isinstance(e, tuple) and len(e) == 3 and len(e[1]) == w for e in edges)
            assert {k for k, _, _ in edges} <= set(range(len(nodes)))
        assert core.window_graph(x, 1)[1] is not core.window_graph(x, 3)[1]

    def test_full_shift_targets_build_no_image_to_validate(self, full2, golden, monkeypatch):
        from sdcat import core

        assert full2.is_full() and not golden.is_full()
        assert not core.empty_shift(("0", "1")).is_full()
        built = []
        real = core.presentation_from_nfa
        monkeypatch.setattr(core, "presentation_from_nfa",
                            lambda alphabet, nfa, *rest: built.append(nfa) or real(alphabet, nfa, *rest))
        xor = make_block_map(full2, full2, 1, {w: str(int(w[0]) ^ int(w[2])) for w in full2.words(3)})
        assert built == []
        assert xor.image.is_full()
        assert len(built) == 1
        # an image that escapes a target that is not full is still refused
        with pytest.raises(ValidationError):
            make_block_map(full2, golden, 0, {("0",): "1", ("1",): "1"})

    def test_an_inner_map_builds_its_window_table_once(self, monkeypatch):
        from collections import defaultdict

        from sdcat import core

        x = full_shift(("0", "1"))
        windows = x.words(3)
        inner = make_block_map(x, x, 1, {w: str(int(w == ("1", "1", "1"))) for w in windows})
        outers = [make_block_map(x, x, 1, {w: str(bits >> i & 1) for i, w in enumerate(windows)})
                  for bits in range(50)]
        # every table handed out, by inner map and width, and every gatherer
        # built: a table or gatherer built again would be a second entry
        handed, gathered = defaultdict(list), []
        real_table, real_gather = core._window_table, core._gather
        monkeypatch.setattr(core, "_window_table",
                            lambda f, w: handed[id(f), w].append(real_table(f, w)) or handed[id(f), w][-1])
        monkeypatch.setattr(core, "_gather", lambda keys: gathered.append(keys) or real_gather(keys))
        for outer in outers:
            assert compose(outer, inner).rule_dict == {
                w: outer.local(tuple(inner.local(w[i : i + 3]) for i in range(3))) for w in x.words(5)}
        assert list(handed) == [(id(inner), 3)]
        tables = handed[id(inner), 3]
        assert len(tables) == 1 and tables[0] is real_table(inner, 3)
        assert len(gathered) == 1 and gathered[0] is tables[0]

    def test_maps_equal_pads_no_rule(self, full2, monkeypatch):
        from sdcat import core

        def refuse(self, radius):
            raise AssertionError("padded_rule called")

        monkeypatch.setattr(core.BlockMap, "padded_rule", refuse)
        flip = make_block_map(full2, full2, 0, {("0",): "1", ("1",): "0"})
        wide = make_block_map(full2, full2, 1, {w: "10"[int(w[1])] for w in full2.words(3)})
        left = make_block_map(full2, full2, 1, {w: "10"[int(w[0])] for w in full2.words(3)})
        assert maps_equal(flip, wide) and maps_equal(wide, flip) and maps_equal(flip, flip)
        assert not maps_equal(flip, left) and not maps_equal(left, flip)
        assert not maps_equal(wide, left)

    def test_radius3_binary_map_builds(self, full2):
        # a random radius-3 rule: its image automaton has tens of thousands
        # of states, so a quadratic trim does not finish
        rng = random.Random(1)
        t0 = time.time()
        f = make_block_map(full2, full2, 3, {w: rng.choice("01") for w in full2.words(7)})
        assert not f.image.is_empty()
        assert time.time() - t0 < 60

    @pytest.mark.parametrize("seed", [1, 2, 3, "permutive"])
    def test_radius2_ternary_map_classifies(self, seed):
        # random radius-2 ternary rules: their image automata have hundreds
        # of thousands of states, so classifying must not build one; the
        # right-permutive rule x_2 + g(x_-2..x_1) mod 3 is onto
        from sdcat import analysis as an
        from sdcat.classify import classify
        from sdcat.limits import CategoryTag

        full3 = full_shift(["0", "1", "2"])
        windows = full3.words(5)
        if seed == "permutive":
            rng = random.Random(0)
            g = {w[:4]: rng.randrange(3) for w in windows}
            rule = {w: str((int(w[4]) + g[w[:4]]) % 3) for w in windows}
        else:
            rng = random.Random(seed)
            rule = {w: rng.choice("012") for w in windows}
        t0 = time.time()
        f = make_block_map(full3, full3, 2, rule)
        epic = classify(f, CategoryTag.parse("K2"))["epic"]
        assert time.time() - t0 < 20
        if seed == "permutive":
            assert epic.yes
        else:
            recheck_garden_of_eden(f, epic)
            assert len(an.missed_word(f)) == 9


class TestWordsCache:
    def test_words_are_enumerated_once(self, monkeypatch):
        from sdcat import automata as au

        calls = []
        real = au.words_of_length

        def counting(dfa, n):
            calls.append(n)
            return real(dfa, n)

        monkeypatch.setattr(au, "words_of_length", counting)
        x = make_presentation(["0", "1"], "sft", [("1", "1")])
        assert x.words(3) == x.words(3)
        assert calls == [3]

    def test_returned_list_is_a_copy(self):
        x = make_presentation(["0", "1"], "sft", [("1", "1")])
        first = x.words(2)
        first.clear()
        assert x.words(2) == [("0", "0"), ("0", "1"), ("1", "0")]

    def test_budget_holds_on_a_cache_hit(self):
        x = make_presentation(["0", "1"], "sft", [("1", "1")])
        x.words(3)
        set_budget(1)
        try:
            with pytest.raises(BudgetExceeded):
                x.words(3)
        finally:
            set_budget(None)


@st.composite
def small_rules(draw):
    bits = draw(st.integers(min_value=0, max_value=255))
    return bits


class TestPropertyBased:
    @given(small_rules(), st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_apply_commutes_with_shift(self, bits, length, phase):
        full = full_shift(["0", "1"])
        windows = full.words(3)
        rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
        f = make_block_map(full, full, 1, rule)
        word = tuple(str((bits >> (i % 8)) & 1) for i in range(length))
        p = PeriodicPoint(word, phase)
        image = apply_map(f, p)
        shifted_image = apply_map(f, PeriodicPoint(word, phase + 1))
        assert shifted_image.segment(0, 6) == tuple(image.at(i + 1) for i in range(6))

    @given(small_rules(), small_rules())
    @settings(max_examples=25, deadline=None)
    def test_mirror_functorial_random(self, bits1, bits2):
        full = full_shift(["0", "1"])
        windows = full.words(3)
        f = make_block_map(full, full, 1, {w: str((bits1 >> i) & 1) for i, w in enumerate(windows)})
        g = make_block_map(full, full, 1, {w: str((bits2 >> i) & 1) for i, w in enumerate(windows)})
        assert maps_equal(mirror_map(compose(g, f)), compose(mirror_map(g), mirror_map(f)))
