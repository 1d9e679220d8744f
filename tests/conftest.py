import contextlib
import itertools
import math
import random
import signal

import pytest

from sdcat import automata as au
from sdcat import classify as cl
from sdcat import limits as li
from sdcat.core import (
    EventuallyPeriodicPoint,
    apply_map_ep,
    compose,
    full_shift,
    golden_mean,
    identity_map,
    make_block_map,
    make_presentation,
    maps_equal,
    pair_symbol,
    presentation_from_allowed_words,
    product_presentation,
    sft_approximation,
    shift_power,
    trivial_shift,
    constant_map,
)
from sdcat import analysis as an
from sdcat.errors import BudgetExceeded


@contextlib.contextmanager
def ceiling(seconds, what):
    """Fail the test, rather than hang it, when the block runs past
    ``seconds``: the alarm raises pytest's failure, which no handler in
    ``src/`` catches."""
    def expire(*_):
        pytest.fail(f"{what} ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def shortest_accepted(dfa):
    """Reference: the shortlex-least word that ``dfa`` accepts, or None."""
    if dfa.init in dfa.accepting:
        return ()
    if not dfa.accepting:
        return None
    return au.first_word([dfa.init], dfa.trans.__getitem__, dfa.accepting.__contains__, None)[0]


def recheck_petals(f, petals):
    """Re-verify a petal witness of non-monicness in M2 or M3 through
    ``core`` alone.

    The petals are two closed walks of pair symbols from one node of the
    kernel graph.  The flower graph with one edge per token read, named
    apart, is built as a shift; its two radius-0 coordinate projections g
    and h must be maps into the source that differ while f∘g = f∘h.  The
    flower is an SFT, since it equals its 2-block approximation, and
    mixing, since it is one irreducible graph whose cycle lengths through
    its centre have gcd 1.
    """
    w1, w2 = petals
    assert w1 and w2 and math.gcd(len(w1), len(w2)) == 1
    nodes, edges, tokens = ["c"], [], {}
    for k, word in enumerate(petals):
        path = ["c"] + [f"{k}.{i}" for i in range(1, len(word))] + ["c"]
        nodes += path[1:-1]
        for i, token in enumerate(word):
            name = f"e{k}.{i}"
            tokens[name] = token
            edges.append((path[i], path[i + 1], name))
    flower = make_presentation(list(tokens), "graph", (nodes, edges))
    assert sft_approximation(flower, 2).language_equal(flower)
    g, h = (make_block_map(flower, f.source, 0, {(name,): pair[k] for name, pair in tokens.items()})
            for k in (0, 1))
    assert not maps_equal(g, h)
    assert maps_equal(compose(f, g), compose(f, h))


def recheck_pair(f, pair, diamond=False):
    """Re-verify a pair witness of non-injectivity through ``core`` alone:
    two distinct points of the source that ``apply_map_ep`` sends to the
    same image.  A ``diamond``, the NO witness of preinjectivity, also
    agrees outside a finite window: the two points have equal left and
    right tails."""
    p1, p2 = pair
    assert p1.in_shift(f.source) and p2.in_shift(f.source)
    assert not p1.same_point(p2)
    assert apply_map_ep(f, p1).same_point(apply_map_ep(f, p2))
    if diamond:
        lo, hi = min(p1.start, p2.start), max(p1.mid_end(), p2.mid_end())
        ll = math.lcm(len(p1.left), len(p2.left))
        lr = math.lcm(len(p1.right), len(p2.right))
        assert p1.segment(lo - ll, lo) == p2.segment(lo - ll, lo)
        assert p1.segment(hi, hi + lr) == p2.segment(hi, hi + lr)


def recheck_sft_premise(x, mixing=False):
    """Re-verify that ``x`` is a transitive SFT, and with ``mixing`` a
    mixing one: ``x`` equals its approximation at the window that
    ``is_sft`` certifies, and the graph on its words of that length,
    joined by its words one longer, is strongly connected; for ``mixing``
    the gcd of that graph's cycle lengths is 1, read off breadth-first
    depths as the gcd of ``depth(u) + 1 - depth(v)`` over its edges."""
    k = an.is_sft(x).certificate["window"]
    assert sft_approximation(x, k).language_equal(x)
    succ, pred = {}, {}
    for w in x.words(k + 1):
        succ.setdefault(w[:-1], []).append(w[1:])
        pred.setdefault(w[1:], []).append(w[:-1])
    nodes = x.words(k)
    for step in (succ, pred):
        assert au.closure([nodes[0]], step.__getitem__) == set(nodes)
    if mixing:
        depth, queue = {nodes[0]: 0}, [nodes[0]]
        for u in queue:
            for v in succ[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        assert math.gcd(*(depth[u] + 1 - depth[v] for u in nodes for v in succ[u])) == 1


def recheck_garden_of_eden(f, verdict):
    """Re-verify a Garden-of-Eden NO of surjectivity: its pair is a
    diamond, and the premise of Moore's theorem that its note names holds:
    ``f`` is an endomorphism of a transitive SFT."""
    assert verdict.no and verdict.note.startswith("Garden of Eden")
    recheck_pair(f, verdict.witness["pair"], diamond=True)
    assert f.source.language_equal(f.target)
    recheck_sft_premise(f.source)


def recheck_mixing_diamond(f, verdict):
    """Re-verify a NO of monicness in M2 or M3 read off a diamond: its pair
    is a diamond, and the premise its note names holds: the source is a
    mixing SFT, on which a diamond spans a mixing SFT off the diagonal of
    the kernel."""
    assert verdict.no and verdict.note.startswith("diamond on a mixing SFT")
    recheck_pair(f, verdict.witness["pair"], diamond=True)
    recheck_sft_premise(f.source, mixing=True)


def seeded_onto_maps(x, y, count=12, seed=1):
    """``count`` seeded radius-1 maps from ``x`` onto ``y``.  With ``y``
    other than ``x`` none is an endomorphism, so their split epicness
    reaches the strong condition, which no theorem settles first."""
    rng, windows, maps = random.Random(seed), x.words(3), []
    while len(maps) < count:
        f = make_block_map(x, y, 1, {w: rng.choice(y.alphabet) for w in windows})
        if an.surjectivity(f).yes:
            maps.append(f)
    return maps


def recheck_pumpable(wit, inner, outer):
    """Re-verify a pumpable witness (u, w, v, n, step) that ``inner`` is no
    SFT inside ``outer`` through ``core`` alone: the w-tailed points around
    u and around v lie in ``inner``, and for n = n0 + k * step, k = 0..3,
    the w-tailed point around u w^n v lies in ``outer`` but not in
    ``inner``."""
    u, w, v = wit["u"], wit["w"], wit["v"]
    assert EventuallyPeriodicPoint(w, u, w).in_shift(inner)
    assert EventuallyPeriodicPoint(w, v, w).in_shift(inner)
    for k in range(4):
        p = EventuallyPeriodicPoint(w, u + w * (wit["n"] + k * wit["step"]) + v, w)
        assert p.in_shift(outer) and not p.in_shift(inner)


def recheck_certificates(f, radius_cap=2):
    """Re-verify through ``core`` every certificate that the searches
    build for ``f`` and that they trust by construction: a section g of
    ``find_section``, a retraction h of ``find_retraction``, the
    connecting map u of ``connecting_map(f, k)`` for k = f, the shift after
    f, and the identity of the source, and for a bijective ``f`` the kept
    inverse of ``limits.inverse``, which must compose to the identity both
    ways.  Returns ``(g, h, us)``, with None where no certificate was
    found."""
    g = cl.find_section(f, radius_cap=radius_cap)
    if g is not None:
        assert maps_equal(compose(f, g), identity_map(f.target))
        make_block_map(g.source, g.target, g.radius, g.rule_dict)
    h = cl.find_retraction(f, radius_cap=radius_cap)
    if h is not None:
        assert maps_equal(compose(h, f), identity_map(f.source))
    us = []
    for k in (f, compose(shift_power(f.target, 1), f), identity_map(f.source)):
        try:
            u = li.connecting_map(f, k)
        except BudgetExceeded:
            u = None
        if u is not None:
            assert maps_equal(compose(u, li.corestrict(f)), li.corestrict(k))
            make_block_map(u.source, u.target, u.radius, u.rule_dict, validate_image=True)
        us.append(u)
    if an.injectivity_family(f).injective and an.surjectivity(f).yes:
        try:
            inv = li.inverse(f)
        except BudgetExceeded:
            inv = None
        if inv is not None:
            assert maps_equal(compose(inv, f), identity_map(f.source))
            assert maps_equal(compose(f, inv), identity_map(f.target))
            make_block_map(inv.source, inv.target, inv.radius, inv.rule_dict, validate_image=True)
    return g, h, us


@pytest.fixture(scope="session")
def full2():
    return full_shift(["0", "1"])


@pytest.fixture(scope="session")
def full2p():
    return full_shift(["0", "1"], point="0")


@pytest.fixture(scope="session")
def full3():
    return full_shift(["0", "1", "2"])


@pytest.fixture(scope="session")
def golden():
    return golden_mean()


@pytest.fixture(scope="session")
def trivial():
    return trivial_shift("0")


@pytest.fixture(scope="session")
def even_shift():
    # even 0-runs between 1s; the classic strictly sofic shift
    return make_presentation(
        ["0", "1"], "graph",
        (["e", "o"], [("e", "o", "0"), ("o", "e", "0"), ("e", "e", "1")]),
    )


@pytest.fixture(scope="session")
def orbit01():
    return make_presentation(["0", "1"], "graph", ([0, 1], [(0, 1, "0"), (1, 0, "1")]))


@pytest.fixture(scope="session")
def x012():
    # B^-1(0*1*2*)
    return make_presentation(["0", "1", "2"], "sft", [("1", "0"), ("2", "0"), ("2", "1")])


def _rule(full, fn):
    return {w: fn(w) for w in full.words(3)}


@pytest.fixture(scope="session")
def xor2(full2):
    return make_block_map(full2, full2, 1, _rule(full2, lambda w: str((int(w[1]) + int(w[2])) % 2)))


@pytest.fixture(scope="session")
def xor3(full2):
    return make_block_map(
        full2, full2, 1, _rule(full2, lambda w: str((int(w[0]) + int(w[1]) + int(w[2])) % 2))
    )


@pytest.fixture(scope="session")
def flip(full2):
    return make_block_map(full2, full2, 0, {("0",): "1", ("1",): "0"})


@pytest.fixture(scope="session")
def sigma(full2):
    return shift_power(full2, 1)


@pytest.fixture(scope="session")
def and_rule(full2):
    return make_block_map(full2, full2, 1, _rule(full2, lambda w: str(int(w[1]) & int(w[2]))))


@pytest.fixture(scope="session")
def const0(full2):
    return constant_map(full2, full2, "0")


@pytest.fixture(scope="session")
def eq_example_map(full2):
    # f(x)_0 = 0 iff x_[0,2] in {000, 010, 101}
    good = {("0", "0", "0"), ("0", "1", "0"), ("1", "0", "1")}
    return make_block_map(full2, full2, 1, _rule(full2, lambda w: "0" if w in good else "1"))


@pytest.fixture(scope="session")
def no000111():
    return make_presentation(["0", "1"], "sft", [("0", "0", "0"), ("1", "1", "1")])


@pytest.fixture(scope="session")
def xor2_no000111(no000111, full2):
    rule = {w: str((int(w[1]) + int(w[2])) % 2) for w in no000111.words(3)}
    return make_block_map(no000111, full2, 1, rule)


@pytest.fixture(scope="session")
def shrink_map(x012):
    # deletes the first 1 of each run; split epic in K1
    rule = {}
    for w in x012.words(3):
        rule[w] = "0" if (w[1] == "1" and w[0] == "0") else w[1]
    return make_block_map(x012, x012, 1, rule)


@pytest.fixture(scope="session")
def compress_map():
    # X: digit runs separated by single #; Y: isolated digits in seas of #
    x = make_presentation(
        ["0", "1", "#"], "graph",
        (["d0", "d1", "s"],
         [("d0", "d0", "0"), ("d1", "d1", "1"), ("d0", "s", "#"), ("d1", "s", "#"),
          ("s", "d0", "0"), ("s", "d1", "1")]),
    )
    y = make_presentation(
        ["0", "1", "#"], "graph",
        (["h", "e"], [("h", "h", "#"), ("h", "e", "0"), ("h", "e", "1"), ("e", "h", "#")]),
    )
    rule = {}
    for w in x.words(3):
        rule[w] = w[2] if w[1] == "#" else "#"
    return make_block_map(x, y, 1, rule)


@pytest.fixture(scope="session")
def sofic_preinj_map():
    # X = B^-1((0*(10*2 + 30*4))*), f replaces 3 by 1
    x = make_presentation(
        ["0", "1", "2", "3", "4"], "graph",
        (["q", "p12", "p34"],
         [("q", "q", "0"), ("q", "p12", "1"), ("p12", "p12", "0"), ("p12", "q", "2"),
          ("q", "p34", "3"), ("p34", "p34", "0"), ("p34", "q", "4")]),
    )
    rule = {(a,): ("1" if a == "3" else a) for a in x.alphabet if x.contains_word((a,))}
    from sdcat.core import rule_image

    return make_block_map(x, rule_image(x, 0, rule, x.alphabet), 0, rule)


@pytest.fixture(scope="session")
def t3_monic_map():
    # X = B^-1((0+21+2 + 0+31+3)*); f rewrites the opening 2/3 to 0
    x = make_presentation(
        ["0", "1", "2", "3"], "graph",
        (["z", "a", "c2", "d2", "c3", "d3"],
         [("z", "a", "0"), ("a", "a", "0"),
          ("a", "c2", "2"), ("c2", "d2", "1"), ("d2", "d2", "1"), ("d2", "z", "2"),
          ("a", "c3", "3"), ("c3", "d3", "1"), ("d3", "d3", "1"), ("d3", "z", "3")]),
    )
    full4 = full_shift(["0", "1", "2", "3"])
    rule = {}
    for w in x.words(3):
        if w in {("0", "2", "1"), ("0", "3", "1")}:
            rule[w] = "0"
        else:
            rule[w] = w[1]
    return make_block_map(x, full4, 1, rule)


@pytest.fixture(scope="session")
def even_cover_map(full2):
    # 3-symbol edge-SFT cover of the even shift, labeled into the full shift
    # edge shift of the cover graph a: e->o, b: o->e, c: e->e
    cover = make_presentation(
        ["a", "b", "c"], "sft",
        [("a", "a"), ("a", "c"), ("b", "b"), ("c", "b")],
    )
    rule = {("a",): "0", ("b",): "0", ("c",): "1"}
    return make_block_map(cover, full2, 0, rule)


@pytest.fixture(scope="session")
def odd_runs_in_marked_sofic():
    """Inclusion of the odd-1-run shift into its 2-marked host.

    The image is not a subSFT of the host, yet the letter-2-free subSFT has
    it as its unique maximal mixing (and transitive) part.
    """
    y = make_presentation(
        ["0", "1", "2"], "graph",
        (["s0", "s1", "s2"],
         [("s0", "s0", "0"), ("s0", "s1", "1"), ("s1", "s2", "1"),
          ("s2", "s1", "1"), ("s1", "s0", "0")]),
    )
    nodes = ["A0", "Ar1", "Ar2", "B0", "Br1", "Br2"]
    edges = [(st, "A0", "2") for st in nodes]
    edges += [
        ("A0", "A0", "0"), ("A0", "Ar1", "1"),
        ("Ar1", "Ar2", "1"), ("Ar1", "A0", "0"),
        ("Ar2", "Ar1", "1"), ("Ar2", "B0", "0"),
        ("B0", "B0", "0"), ("B0", "Br1", "1"),
        ("Br1", "Br2", "1"), ("Br1", "B0", "0"),
        ("Br2", "Br1", "1"),
    ]
    z = make_presentation(["0", "1", "2"], "graph", (nodes, edges))
    return make_block_map(y, z, 0, {("0",): "0", ("1",): "1"})


@pytest.fixture(scope="session")
def six_symbol_relation():
    allowed2 = {"00", "01", "02", "03", "14", "24", "25", "35", "40", "50"}
    forb = [tuple(w) for w in ("".join(p) for p in itertools.product("012345", repeat=2))
            if w not in allowed2]
    x6 = make_presentation([str(i) for i in range(6)], "sft", forb)
    letters = {("1", "2"), ("2", "1"), ("2", "3"), ("3", "2")} | {(s, s) for s in "012345"}
    sft = presentation_from_allowed_words(
        tuple(pair_symbol(a, b) for a in x6.alphabet for b in x6.alphabet),
        [(pair_symbol(a, b),) for (a, b) in letters],
    )
    rel = an.intersection_presentation(product_presentation(x6, x6), sft)
    return an.SubshiftRelation(rel, x6, x6)


@pytest.fixture(scope="session")
def carry_relation(full2):
    pa = tuple(pair_symbol(a, b) for a in "01" for b in "01")
    allowed3 = set()
    for a in "01":
        na = str(1 - int(a))
        for b in "01":
            nb = str(1 - int(b))
            for c in "01":
                nc = str(1 - int(c))
                allowed3.add((pair_symbol(a, a), pair_symbol(b, b), pair_symbol(c, c)))
                allowed3.add((pair_symbol(a, a), pair_symbol(b, b), pair_symbol(c, nc)))
            allowed3.add((pair_symbol(a, a), pair_symbol(b, nb), pair_symbol(nb, b)))
        allowed3.add((pair_symbol(a, na), pair_symbol(na, a), pair_symbol(na, a)))
        allowed3.add((pair_symbol(a, na), pair_symbol(a, na), pair_symbol(a, na)))
    rel = presentation_from_allowed_words(pa, sorted(allowed3))
    return an.SubshiftRelation(rel, full2, full2)
