"""Acceptance criteria.

Each test prints one pass line with its runtime; the stated ceilings are
asserted directly.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import pytest

from sdcat import analysis as an
from sdcat import classify as cl
from sdcat import colimits as co
from sdcat import errors
from sdcat import limits as li
from sdcat import oracle as orc
from sdcat.cli import main
from sdcat.core import (
    compose,
    diagonal_relation,
    higher_block_presentation,
    identity_map,
    make_block_map,
    make_presentation,
    maps_equal,
)
from sdcat.files import load_bmap
from sdcat.limits import CategoryTag

from conftest import recheck_pair

K1, K2, K3, M2 = (CategoryTag.parse(t) for t in ("K1", "K2", "K3", "M2"))


def _report(criterion, t0, ceiling):
    elapsed = time.time() - t0
    print(f"PASS criterion {criterion} ({elapsed:.2f}s, ceiling {ceiling}s)")
    assert elapsed < ceiling


def test_criterion_01_xor3_kernel(xor3, full2):
    t0 = time.time()
    ker = an.kernel_set(xor3)
    consts = an.constituents(ker.presentation)
    assert len(consts) == 2
    diag = diagonal_relation(full2)
    flags = [c.language_equal(diag) for c in consts]
    assert sum(flags) == 1
    other = consts[flags.index(False)]
    assert not an.is_mixing(other)
    ps = an.periods(other)
    assert ps.upto(9) == [3, 6, 9] and not ps.is_cofinite()
    assert cl.is_monic(xor3, M2).yes
    assert not an.injectivity_family(xor3).injective
    _report(1, t0, 1.0)


def test_criterion_02_xor2_on_no000111(xor2_no000111):
    t0 = time.time()
    ker = an.kernel_set(xor2_no000111)
    consts = an.constituents(ker.presentation)
    assert len(consts) == 2
    assert all(an.is_mixing(c) for c in consts)
    assert cl.is_monic(xor2_no000111, M2).no
    _report(2, t0, 1.0)


def test_criterion_03_equalizer_example(eq_example_map, const0):
    t0 = time.time()
    e = an.equalizer_set(eq_example_map, const0)
    # exactly three points: all-0 and the two phases of (01)
    assert [e.count_words(n) for n in (1, 2, 3, 4, 5)] == [2, 3, 3, 3, 3]
    resK = li.equalizer(eq_example_map, const0, K2)
    assert resK.exists and resK.object.language_equal(e)
    resM = li.equalizer(eq_example_map, const0, M2)
    assert resM.exists
    assert resM.object.words(2) == [("0", "0")]
    assert an.image(resM.legs[0]).words(1) == [("0",)]
    _report(3, t0, 1.0)


def test_criterion_04_run_compression(compress_map):
    t0 = time.time()
    assert cl.is_epic(compress_map, K2).yes
    assert orc.brute_decide("same_period_preimages", compress_map, {"period_bound": 6})
    verdict = cl.is_split_epic(compress_map, K2)
    assert verdict.no
    p = verdict.witness["p"]
    tuples = [f for f in verdict.witness["failures"] if "w" in f]
    assert tuples
    for tup in tuples:
        assert len(tup["w"]) <= 8
        assert orc.ep_preimage_search(compress_map, tup, pad=8) is None
    _report(4, t0, 30.0)


def test_criterion_05_flip_coequalizer_cli(tmp_path, xor2):
    t0 = time.time()
    (tmp_path / "full.shift").write_text("alphabet: 0 1\nkind: sft\n")
    (tmp_path / "flip.bmap").write_text(
        "source: full.shift\ntarget: full.shift\nradius: 0\nrule: 0 -> 1\nrule: 1 -> 0\n"
    )
    out = tmp_path / "q.bmap"
    code = main(["coeq-id", str(tmp_path / "flip.bmap"), "--category", "K3", "-o", str(out)])
    assert code == 0
    q = load_bmap(str(out))
    kq = an.kernel_set(q).presentation
    kx = an.kernel_set(xor2).presentation
    for n in range(1, 9):
        assert kq.words(n) == kx.words(n)
    _report(5, t0, 5.0)


def test_criterion_06_local_equivalences(carry_relation, six_symbol_relation):
    t0 = time.time()
    checks = co.relation_checks(carry_relation, period_bound=4)
    assert checks["reflexive"] and checks["symmetric"] and checks["transitive_on_periodic"]
    v = co.is_local_equivalence(carry_relation, 6)
    assert v.no and v.bound_used == 6
    v6 = co.is_local_equivalence(six_symbol_relation, 3)
    assert v6.yes and v6.certificate["window"] == 1
    assert any(("1",) in c and ("3",) in c for c in v6.certificate["classes"])
    _report(6, t0, 10.0)


def test_criterion_07_sofic_preinjectivity(sofic_preinj_map):
    t0 = time.time()
    f = sofic_preinj_map
    consts = an.constituents(an.kernel_set(f).presentation)
    diag = diagonal_relation(f.source)
    assert len(consts) == 1 and consts[0].language_equal(diag)
    v = an.is_preinjective(f)
    assert v.no
    recheck_pair(f, v.witness["pair"], diamond=True)
    _report(7, t0, 5.0)


def test_criterion_08_k1_split_epic(shrink_map, x012):
    t0 = time.time()
    v = cl.is_split_epic(shrink_map, K1)
    assert v.yes
    g = v.certificate
    assert g.radius <= 1
    assert maps_equal(compose(shrink_map, g), identity_map(x012))
    _report(8, t0, 10.0)


def test_criterion_09_census(full2):
    t0 = time.time()
    windows = full2.words(3)
    disagreements = 0
    for bits in range(256):
        rule = {w: str((bits >> i) & 1) for i, w in enumerate(windows)}
        f = make_block_map(full2, full2, 1, rule)
        fam = an.injectivity_family(f)
        engine = {
            "epic": cl.is_epic(f, K2).yes,
            "injective": fam.injective,
            "monic_k2": cl.is_monic(f, K2).yes,
            "preinjective": an.is_preinjective(f).yes,
        }
        for prop, want in engine.items():
            if orc.brute_decide(prop, f) != want:
                disagreements += 1
    assert disagreements == 0
    _report(9, t0, 300.0)


def test_criterion_10_implication_lattice(
    xor3, xor2, xor2_no000111, compress_map, shrink_map, flip, golden, full2, t3_monic_map
):
    t0 = time.time()
    golden_inc = make_block_map(golden, full2, 0, {("0",): "0", ("1",): "1"})
    corpus = [
        (identity_map(full2), K2),
        (xor3, M2),
        (xor2, K2),
        (golden_inc, M2),
        (compress_map, K2),
        (shrink_map, K1),
        (flip, CategoryTag.parse("M1")),
        (t3_monic_map, CategoryTag.parse("T3")),
    ]
    for f, cat in corpus:
        row = cl.classify(f, cat)
        assert not cl.implication_violations(row), (cat, row)
    _report(10, t0, 120.0)


def test_criterion_11_universal_properties(golden, full2, xor3, xor2, const0, eq_example_map):
    t0 = time.time()
    audits = 0

    # diagram 1: product golden x golden, cones enumerated at radius 0
    pr = li.product(golden, golden)
    zmaps = list(orc.enumerate_block_maps(orc.EnumerationSpec(golden, golden, radius=0)))
    for h1 in zmaps:
        for h2 in zmaps:
            u = li.mediate_product(pr, h1, h2)
            assert maps_equal(compose(pr.legs[0], u), h1)
            assert maps_equal(compose(pr.legs[1], u), h2)
            count = sum(
                1
                for cand in orc.enumerate_block_maps(
                    orc.EnumerationSpec(golden, pr.object, radius=u.radius)
                )
                if maps_equal(compose(pr.legs[0], cand), h1)
                and maps_equal(compose(pr.legs[1], cand), h2)
            )
            assert count == 1
            audits += 1

    # diagram 2: product full2 x golden
    pr2 = li.product(full2, golden)
    for h1 in orc.enumerate_block_maps(orc.EnumerationSpec(full2, full2, radius=0)):
        for h2 in orc.enumerate_block_maps(orc.EnumerationSpec(full2, golden, radius=0)):
            u = li.mediate_product(pr2, h1, h2)
            assert maps_equal(compose(pr2.legs[0], u), h1)
            assert maps_equal(compose(pr2.legs[1], u), h2)
            audits += 1
    assert an.injectivity_family(li.pairing(pr2.legs[0], pr2.legs[1],
        __import__("sdcat.core", fromlist=["product_presentation"]).product_presentation(full2, golden))).injective

    # diagram 3: kernel pair of xor3; cones are equal-composite pairs
    kp = li.kernel_pair(xor3)
    cones = []
    r0 = list(orc.enumerate_block_maps(orc.EnumerationSpec(full2, full2, radius=0)))
    for h1 in r0:
        for h2 in r0:
            if maps_equal(compose(xor3, h1), compose(xor3, h2)):
                cones.append((h1, h2))
    assert cones
    for h1, h2 in cones:
        u = li.pairing(h1, h2, kp.object)
        assert maps_equal(compose(kp.legs[0], u), h1)
        assert maps_equal(compose(kp.legs[1], u), h2)
        audits += 1
    assert an.injectivity_family(
        li.pairing(kp.legs[0], kp.legs[1],
                   __import__("sdcat.core", fromlist=["product_presentation"]).product_presentation(full2, full2))
    ).injective

    # diagram 4: pullback of xor2 against the zero map
    pb = li.pullback(xor2, const0)
    pb_cones = []
    for h1 in r0:
        if maps_equal(compose(xor2, h1), const0):
            for h2 in r0:
                pb_cones.append((h1, h2))
    assert pb_cones
    for h1, h2 in pb_cones:
        u = li.pairing(h1, h2, pb.object)
        assert maps_equal(compose(pb.legs[0], u), h1)
        assert maps_equal(compose(pb.legs[1], u), h2)
        audits += 1

    # diagram 5: K2 equalizer of the three-point example
    eq = li.equalizer(eq_example_map, const0, K2)
    eq_cones = [
        h
        for h in orc.enumerate_block_maps(orc.EnumerationSpec(full2, full2, radius=1))
        if maps_equal(compose(eq_example_map, h), compose(const0, h))
    ]
    assert eq_cones
    for h in eq_cones:
        u = li.mediate_equalizer(eq, h)
        assert maps_equal(compose(eq.legs[0], u), h)
        audits += 1
    assert an.injectivity_family(eq.legs[0]).injective

    assert audits == 21  # 4 + 4 + 4 + 8 + 1 cones over the five diagrams
    _report(11, t0, 120.0)


def test_criterion_12_spreading_coequalizer(and_rule, full2, full3):
    t0 = time.time()
    res = co.coequalizer_id(and_rule, K3)
    assert res.exists
    assert res.legs[0].target.count_words(2) == 1
    invariant = 0
    for h in orc.enumerate_block_maps(orc.EnumerationSpec(full2, full3, radius=1)):
        if maps_equal(compose(h, and_rule), h):
            invariant += 1
            assert len(set(h.rule_dict.values())) == 1
    assert invariant == 3
    _report(12, t0, 120.0)


def test_wide_one_point_map_checks(tmp_path, capsys):
    # radius 24,000 on the one-point shift: one word of 48,001 symbols,
    # walked once, not copied per prefix
    t0 = time.time()
    (tmp_path / "one.shift").write_text("alphabet: 0\nkind: sft\n")
    wide = tmp_path / "wide.bmap"
    wide.write_text(f"source: one.shift\ntarget: one.shift\nradius: 24000\n"
                    f"rule: {'0' * 48001} -> 0\n")
    for prop in ("epic", "monic", "split-epic", "split-monic", "regular-monic"):
        assert main(["check", prop, str(wide), "--category", "K2"]) == 0
    assert main(["dynamics", str(wide)]) == 0
    capsys.readouterr()
    _report("radius 24,000", t0, 10.0)


def test_higher_block_presentation_of_full3_at_width_9(full3):
    # 6,561 nodes on 19,683 block symbols: minimize refines the rows, not
    # a states x alphabet table
    t0 = time.time()
    h = higher_block_presentation(full3, 9)
    assert h.n_live() == 3 ** 8 and len(h.alphabet) == 3 ** 9
    _report("full3 width 9", t0, 5.0)


SIX_NODE_EDGES = ["s0 s0 2", "s0 s2 0", "s0 s3 1", "s1 s0 0", "s1 s2 1", "s2 s3 2", "s2 s4 0",
                  "s2 s4 1", "s3 s1 0", "s3 s1 1", "s3 s4 2", "s4 s1 0", "s4 s5 1", "s4 s5 2",
                  "s5 s1 2", "s5 s4 1"]


def test_analyze_of_a_six_node_graph_shift(tmp_path, capsys):
    # a syntactic monoid of 6,062 functions: analyze counts it and builds
    # no multiplication table, and the non-SFT witness is the first word
    # tried, so no longer word is listed
    t0 = time.time()
    path = tmp_path / "six.shift"
    path.write_text("alphabet: 0 1 2\nkind: graph\nnode: s0 s1 s2 s3 s4 s5\n"
                    + "".join(f"edge: {e}\n" for e in SIX_NODE_EDGES))
    assert main(["analyze", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["states"] == 38 and out["sft"] == "NO"
    assert out["transitive"] is True and out["mixing"] is True
    assert out["finite"] is False and out["countable"] is False
    assert out["period_residues"] == {"threshold": 31, "modulus": 4, "residues": [0, 1, 2, 3]}
    assert out["monoid_size"] == 6062
    _report("analyze six-node graph", t0, 10.0)


def _no_run_of_zeros(m):
    return make_presentation(["0", "1"], "sft", [("0",) * m])


@pytest.mark.parametrize("m", [19, 40])
def test_sft_window_from_the_follower_sets(m):
    # the window is read off the pair graph, with no SFT approximation
    t0 = time.time()
    v = an.is_sft(_no_run_of_zeros(m))
    assert v.yes and v.certificate == {"window": m}
    _report(f"no run of {m} 0s", t0, 5.0)


def test_identity_on_a_long_window_sft_is_epic_in_k2(tmp_path, capsys):
    t0 = time.time()
    (tmp_path / "runs.shift").write_text(f"alphabet: 0 1\nkind: sft\nforbidden: {'0' * 19}\n")
    (tmp_path / "id.bmap").write_text("source: runs.shift\ntarget: runs.shift\nradius: 0\n"
                                      "rule: 0 -> 0\nrule: 1 -> 1\n")
    assert main(["check", "epic", str(tmp_path / "id.bmap"), "--category", "K2"]) == 0
    capsys.readouterr()
    _report("identity of no 0^19 in K2", t0, 5.0)


def test_inclusion_of_sfts_is_regular_monic_in_k2():
    # an SFT is a subSFT of every shift that holds it: no witness search
    t0 = time.time()
    x, y = _no_run_of_zeros(10), _no_run_of_zeros(16)
    f = make_block_map(x, y, 0, {("0",): "0", ("1",): "1"})
    v = cl.is_regular_monic(f, K2)
    assert v.yes and v.certificate == {"window": 10}
    _report("no 0^10 into no 0^16", t0, 5.0)


@pytest.mark.parametrize("m, n", [(13, 15), (19, 25)])
def test_budget_below_the_sft_window_still_gives_yes(m, n):
    # every window from the inner SFT's own up fits, so a budget that stops
    # the search below it leaves YES with that window, not UNDECIDED
    errors.set_budget(3000)
    try:
        v = an.is_subsft_of(_no_run_of_zeros(m), _no_run_of_zeros(n))
    finally:
        errors.set_budget(None)
    assert v.yes and v.certificate == {"window": m}


def test_subsft_window_search_starts_at_the_first_difference():
    # "no 0^19" and "no 0^25" have the same words up to length 18, so no
    # window below 19 can fit and none is tried
    t0 = time.time()
    v = an.is_subsft_of(_no_run_of_zeros(19), _no_run_of_zeros(25))
    assert v.yes and v.certificate == {"window": 19}
    _report("no 0^19 in no 0^25", t0, 1.0)


def test_budget_above_the_first_difference_still_gives_yes():
    # "no 00, no 1^25" leaves "no 1^30" at length 2, and the windows tried
    # from there run out of budget at 16: YES with the inner window
    inner = make_presentation(["0", "1"], "sft", [("0", "0"), ("1",) * 25])
    errors.set_budget(3000)
    try:
        v = an.is_subsft_of(inner, make_presentation(["0", "1"], "sft", [("1",) * 30]))
    finally:
        errors.set_budget(None)
    assert v.yes and v.certificate == {"window": 25}


def test_periods_compose_each_monoid_element_once(monkeypatch):
    # the six-node shift above: one composition per element and symbol
    edges = [tuple(e.split()) for e in SIX_NODE_EDGES]
    x = make_presentation(["0", "1", "2"], "graph", ([f"s{i}" for i in range(6)], edges))
    calls = []
    real = an.au.compose_pfn
    monkeypatch.setattr(an.au, "compose_pfn", lambda f, g: calls.append(1) or real(f, g))
    ps = an.periods(x)
    assert (ps.threshold, ps.modulus, ps.residues()) == (31, 4, [0, 1, 2, 3])
    assert len(calls) == 6062 * 3
