"""Interchange formats and the command-line surface."""

import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import sdcat
from sdcat import analysis as an
from sdcat.cli import main
from sdcat.core import full_shift, make_block_map, maps_equal, product_presentation
from sdcat.files import (
    format_shift,
    load_bmap,
    load_shift,
    parse_shift,
    save_bmap,
    save_shift,
)
from sdcat.errors import ParseError

from conftest import ceiling


GOLDEN_TEXT = """
# golden mean shift
alphabet: 0 1
kind: sft
forbidden: 11
"""

FULL_TEXT = """
alphabet: 0 1
kind: sft
"""

EVEN_TEXT = """
alphabet: 0 1
kind: graph
node: e o
edge: e o 0
edge: o e 0
edge: e e 1
"""


# files that ``build`` writes, byte for byte: a pair symbol is spelled
# (a,b), a nested one ((a,b),c)

GG_SHIFT = """\
alphabet: (0,0) (0,1) (1,0) (1,1)
kind: graph
node: s0 s1 s2 s3
edge: s0 s0 (0,0)
edge: s0 s1 (0,1)
edge: s0 s2 (1,0)
edge: s0 s3 (1,1)
edge: s1 s0 (0,0)
edge: s1 s2 (1,0)
edge: s2 s0 (0,0)
edge: s2 s1 (0,1)
edge: s3 s0 (0,0)
"""

GG_LEG1 = """\
source: gg.leg1.source.shift
target: gg.leg1.target.shift
radius: 0
rule: (0,0) -> 0
rule: (0,1) -> 0
rule: (1,0) -> 1
rule: (1,1) -> 1
"""

GG_LEG2 = """\
source: gg.leg2.source.shift
target: gg.leg2.target.shift
radius: 0
rule: (0,0) -> 0
rule: (0,1) -> 1
rule: (1,0) -> 0
rule: (1,1) -> 1
"""

KER_SHIFT = """\
alphabet: (0,0) (0,1) (1,0) (1,1)
kind: graph
node: s0 s1 s2 s3
edge: s0 s0 (0,0)
edge: s0 s0 (1,1)
edge: s1 s3 (0,1)
edge: s1 s3 (1,0)
edge: s2 s1 (0,1)
edge: s2 s1 (1,0)
edge: s3 s2 (0,0)
edge: s3 s2 (1,1)
"""

GGG_SHIFT = """\
alphabet: ((0,0),0) ((0,0),1) ((0,1),0) ((0,1),1) ((1,0),0) ((1,0),1) ((1,1),0) ((1,1),1)
kind: graph
node: s0 s1 s2 s3 s4 s5 s6 s7
edge: s0 s0 ((0,0),0)
edge: s0 s1 ((0,0),1)
edge: s0 s2 ((0,1),0)
edge: s0 s3 ((0,1),1)
edge: s0 s4 ((1,0),0)
edge: s0 s5 ((1,0),1)
edge: s0 s6 ((1,1),0)
edge: s0 s7 ((1,1),1)
edge: s1 s0 ((0,0),0)
edge: s1 s2 ((0,1),0)
edge: s1 s4 ((1,0),0)
edge: s1 s6 ((1,1),0)
edge: s2 s0 ((0,0),0)
edge: s2 s1 ((0,0),1)
edge: s2 s4 ((1,0),0)
edge: s2 s5 ((1,0),1)
edge: s3 s0 ((0,0),0)
edge: s3 s4 ((1,0),0)
edge: s4 s0 ((0,0),0)
edge: s4 s1 ((0,0),1)
edge: s4 s2 ((0,1),0)
edge: s4 s3 ((0,1),1)
edge: s5 s0 ((0,0),0)
edge: s5 s2 ((0,1),0)
edge: s6 s0 ((0,0),0)
edge: s6 s1 ((0,0),1)
edge: s7 s0 ((0,0),0)
"""

GGG_LEG1 = """\
source: ggg.leg1.source.shift
target: ggg.leg1.target.shift
radius: 0
rule: ((0,0),0) -> (0,0)
rule: ((0,0),1) -> (0,0)
rule: ((0,1),0) -> (0,1)
rule: ((0,1),1) -> (0,1)
rule: ((1,0),0) -> (1,0)
rule: ((1,0),1) -> (1,0)
rule: ((1,1),0) -> (1,1)
rule: ((1,1),1) -> (1,1)
"""


def _child_env():
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(sdcat.__file__).parents[1]))


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "golden.shift").write_text(GOLDEN_TEXT)
    (tmp_path / "full.shift").write_text(FULL_TEXT)
    (tmp_path / "even.shift").write_text(EVEN_TEXT)
    xor3 = ["source: full.shift", "target: full.shift", "radius: 1"]
    for w in range(8):
        bits = f"{w:03b}"
        out = (bits.count("1")) % 2
        xor3.append(f"rule: {bits} -> {out}")
    (tmp_path / "xor3.bmap").write_text("\n".join(xor3) + "\n")
    (tmp_path / "flip.bmap").write_text(
        "source: full.shift\ntarget: full.shift\nradius: 0\nrule: 0 -> 1\nrule: 1 -> 0\n"
    )
    (tmp_path / "and.bmap").write_text(
        "source: full.shift\ntarget: full.shift\nradius: 1\n"
        "rule: 011 -> 1\nrule: 111 -> 1\ndefault: 0\n"
    )
    return tmp_path


class TestShiftFormat:
    def test_parse_golden(self, workdir, golden):
        x = load_shift(str(workdir / "golden.shift"))
        assert x.language_equal(golden)

    def test_parse_graph(self, workdir, even_shift):
        x = load_shift(str(workdir / "even.shift"))
        assert x.language_equal(even_shift)

    def test_roundtrip(self, golden, even_shift):
        for x in (golden, even_shift):
            assert parse_shift(format_shift(x)).language_equal(x)

    def test_roundtrip_composite_symbols(self, golden):
        from sdcat.core import presentation_from_edges

        # a file holds the spellings of the pair symbols; read back and
        # renamed to the pairs they spell, it is the product again
        p = product_presentation(golden, golden)
        q = parse_shift(format_shift(p))
        spelled = {f"({a},{b})": (a, b) for a, b in p.alphabet}
        assert set(q.alphabet) == spelled.keys()
        renamed = presentation_from_edges(p.alphabet, q.n_live(),
                                          [(i, spelled[a], j) for i, a, j in q.edges])
        assert renamed.language_equal(p)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_shift("kind: sft\nforbidden: 11\n")

    def test_point_roundtrip(self, golden):
        g = golden.with_point("0")
        assert parse_shift(format_shift(g)).point == "0"

    def test_canonical_emission_is_presentation_independent(self, golden, even_shift):
        via_graph = parse_shift(
            "alphabet: 0 1\nkind: graph\nnode: u v\n"
            "edge: u u 0\nedge: u v 1\nedge: v u 0\n"
        )
        assert format_shift(via_graph) == format_shift(golden)
        relabeled = parse_shift(
            "alphabet: 0 1\nkind: graph\nnode: x y\n"
            "edge: y x 0\nedge: x y 0\nedge: y y 1\n"
        )
        assert format_shift(relabeled) == format_shift(even_shift)


class TestBmapFormat:
    def test_load_with_default(self, workdir):
        f = load_bmap(str(workdir / "and.bmap"))
        assert f.local(("0", "0", "0")) == "0"
        assert f.local(("0", "1", "1")) == "1"

    def test_save_load_roundtrip(self, workdir):
        f = load_bmap(str(workdir / "xor3.bmap"))
        out = workdir / "copy.bmap"
        save_bmap(f, str(out))
        g = load_bmap(str(out))
        assert maps_equal(f, g)

    def test_tuple_symbols_round_trip_as_comma_separated_words(self, tmp_path):
        # each window of three pair symbols is written as their spellings
        # joined by commas, and read back through the comma split
        pairs = [("0", "0"), ("0", "1"), ("1", "1")]
        x, y = full_shift(pairs), full_shift(["0", "1"])
        f = make_block_map(x, y, 1, {w: w[0][1] if w[1] == w[2] else w[2][0] for w in x.words(3)})
        save_bmap(f, str(tmp_path / "pairs.bmap"))
        assert "rule: (0,0),(0,1),(1,1) -> 1" in (tmp_path / "pairs.bmap").read_text()
        g = load_bmap(str(tmp_path / "pairs.bmap"))
        spelled = {f"({a},{b})": (a, b) for a, b in pairs}
        assert set(g.source.alphabet) == spelled.keys() and g.radius == 1
        assert {tuple(map(spelled.get, w)): out for w, out in g.rule_dict.items()} == f.rule_dict

    def test_multi_character_symbols_are_split_at_commas(self, tmp_path):
        (tmp_path / "ab.shift").write_text("alphabet: ab cd\nkind: sft\nforbidden: cd,cd\n")
        (tmp_path / "m.bmap").write_text("source: ab.shift\ntarget: ab.shift\nradius: 1\n"
                                         "rule: ab,cd,ab -> cd\ndefault: ab\n")
        f = load_bmap(str(tmp_path / "m.bmap"))
        assert f.source.words(2) == [("ab", "ab"), ("ab", "cd"), ("cd", "ab")]
        assert {w: out for w, out in f.rule_dict.items() if out != "ab"} == {("ab", "cd", "ab"): "cd"}
        (tmp_path / "bad.bmap").write_text("source: ab.shift\ntarget: ab.shift\nradius: 1\n"
                                           "rule: ab,c,ab -> cd\n")
        with pytest.raises(ParseError, match="unknown symbol 'c'"):
            load_bmap(str(tmp_path / "bad.bmap"))

    def test_a_file_named_twice_is_one_shift(self, workdir):
        f = load_bmap(str(workdir / "xor3.bmap"))
        assert f.source is f.target
        (workdir / "copy.shift").write_text(FULL_TEXT)
        (workdir / "two.bmap").write_text("source: full.shift\ntarget: copy.shift\nradius: 0\n"
                                          "rule: 0 -> 0\nrule: 1 -> 1\n")
        g = load_bmap(str(workdir / "two.bmap"))
        assert g.source is not g.target and g.source == g.target

    def test_rule_word_outside_language_rejected(self, tmp_path, workdir):
        (tmp_path / "g.shift").write_text(GOLDEN_TEXT)
        bad = "source: g.shift\ntarget: g.shift\nradius: 1\nrule: 111 -> 0\ndefault: 0\n"
        (tmp_path / "bad.bmap").write_text(bad)
        from sdcat.errors import ValidationError

        with pytest.raises(ValidationError):
            load_bmap(str(tmp_path / "bad.bmap"))


class TestCli:
    def test_analyze_json(self, workdir, capsys):
        code = main(["analyze", str(workdir / "golden.shift"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["transitive"] and out["mixing"]
        assert out["sft"] == "YES" and out["window"] == 2
        assert out["monoid_size"] == 6
        assert out["periods_upto"][:3] == [1, 2, 3]

    def test_analyze_explores_the_monoid_once(self, workdir, capsys, monkeypatch):
        # the period set and the monoid size read one exploration, here on
        # a shift whose canonical automaton has a transient state
        whats = []
        real = an.au.explore
        monkeypatch.setattr(an.au, "explore",
                            lambda start, succ, what: whats.append(what) or real(start, succ, what))
        assert main(["analyze", str(workdir / "even.shift"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["monoid_size"] == 7
        assert whats.count("transition monoid") == 1

    def test_check_epic_exit_codes(self, workdir, capsys):
        assert main(["check", "epic", str(workdir / "xor3.bmap"), "--category", "K3"]) == 0
        capsys.readouterr()

    def test_check_monic_m2(self, workdir, capsys):
        assert main(["check", "monic", str(workdir / "xor3.bmap"), "--category", "M2"]) == 0
        assert main(["check", "injective", str(workdir / "xor3.bmap"), "--category", "K3"]) == 1
        capsys.readouterr()

    def test_check_split_epic_certificate(self, workdir, capsys):
        cert = workdir / "sec.bmap"
        code = main([
            "check", "split-epic", str(workdir / "flip.bmap"),
            "--category", "K2", "--cert-out", str(cert), "--json",
        ])
        assert code == 0
        g = load_bmap(str(cert))
        f = load_bmap(str(workdir / "flip.bmap"))
        from sdcat.core import compose, identity_map

        assert maps_equal(compose(f, g), identity_map(f.target))
        capsys.readouterr()

    def test_coeq_id_flip(self, workdir, capsys):
        out = workdir / "q.bmap"
        code = main([
            "coeq-id", str(workdir / "flip.bmap"), "--category", "K3", "-o", str(out),
        ])
        assert code == 0
        q = load_bmap(str(out))
        f = load_bmap(str(workdir / "flip.bmap"))
        from sdcat.core import compose

        assert maps_equal(compose(q, f), q)
        capsys.readouterr()

    def test_written_quotient_round_trips_its_orbit_tokens(self, workdir, capsys):
        # a written shift whose symbols hold commas, the orbit sets of flip
        # on 3-words: the identity on them is injective and their product
        # exists
        assert main(["coeq-id", str(workdir / "flip.bmap"), "--category", "K3",
                     "-o", str(workdir / "q.bmap")]) == 0
        quotient = workdir / "orbits.shift"
        save_shift(full_shift(["{000,111}", "{001,110}", "{010,101}", "{011,100}"]),
                   str(quotient))
        alphabet = load_shift(str(quotient)).alphabet
        assert any("," in a for a in alphabet)
        (workdir / "id.bmap").write_text(
            f"source: {quotient.name}\ntarget: {quotient.name}\nradius: 0\n"
            + "".join(f"rule: {a} -> {a}\n" for a in alphabet))
        assert main(["check", "injective", str(workdir / "id.bmap"), "--category", "K3"]) == 0
        assert main(["build", "product", str(quotient), str(quotient),
                     "--category", "K3", "-o", str(workdir / "qq.shift")]) == 0
        assert len(load_shift(str(workdir / "qq.shift")).alphabet) == len(alphabet) ** 2
        capsys.readouterr()

    def test_build_product_roundtrip(self, workdir, capsys):
        out = workdir / "gg.shift"
        code = main([
            "build", "product", str(workdir / "golden.shift"), str(workdir / "golden.shift"),
            "--category", "K3", "-o", str(out),
        ])
        assert code == 0
        x = load_shift(str(out))
        assert len(x.alphabet) == 4
        assert x.count_words(2) == 9
        leg = load_bmap(str(workdir / "gg.leg1.bmap"))
        assert an.image(leg).language_equal(load_shift(str(workdir / "golden.shift")))
        capsys.readouterr()

    def test_build_writes_legs_beside_the_object_file(self, workdir, capsys, monkeypatch):
        # the legs take the output path less its extension, and a dot in a
        # directory name is no extension
        monkeypatch.chdir(workdir)
        (workdir / "res.d").mkdir()
        before = set(workdir.iterdir())
        code = main(["build", "product", "golden.shift", "golden.shift", "--category", "K3",
                     "-o", "res.d/prod", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["legs"] == [
            "res.d/prod.leg1.bmap", "res.d/prod.leg2.bmap"]
        assert set(workdir.iterdir()) == before
        assert sorted(p.name for p in (workdir / "res.d").iterdir()) == [
            "prod", *(f"prod.leg{i}.{end}" for i in (1, 2)
                      for end in ("bmap", "source.shift", "target.shift"))]

    def test_written_files_spell_pairs_as_before(self, workdir, capsys, golden):
        def build(op, *inputs, out):
            assert main(["build", op, *(str(workdir / a) for a in inputs), "--category", "K3",
                         "-o", str(workdir / out)]) == 0
            return lambda name: (workdir / name).read_text()

        gg = build("product", "golden.shift", "golden.shift", out="gg.shift")
        assert (gg("gg.shift"), gg("gg.leg1.bmap"), gg("gg.leg2.bmap")) == (GG_SHIFT, GG_LEG1, GG_LEG2)
        ker = build("kernel-pair", "xor3.bmap", out="ker.shift")
        assert (ker("ker.shift"), ker("ker.leg1.bmap"), ker("ker.leg2.bmap")) == (
            KER_SHIFT, GG_LEG1.replace("gg.", "ker."), GG_LEG2.replace("gg.", "ker."))
        ggg = build("product", "gg.shift", "golden.shift", out="ggg.shift")
        assert (ggg("ggg.shift"), ggg("ggg.leg1.bmap"), ggg("ggg.leg1.target.shift")) == (
            GGG_SHIFT, GGG_LEG1, GG_SHIFT)
        # the same nesting built in the engine, pairs of a pair and a symbol
        assert format_shift(product_presentation(product_presentation(golden, golden), golden)) == GGG_SHIFT
        capsys.readouterr()

    def test_colliding_spellings_fail_at_write_time(self, workdir, capsys):
        # (0,1,1) spells both (0, 1,1) and (0,1, 1): the product exists,
        # and only writing it fails
        (workdir / "a.shift").write_text("alphabet: 0 0,1\nkind: sft\n")
        (workdir / "b.shift").write_text("alphabet: 1 1,1\nkind: sft\n")
        argv = ["build", "product", str(workdir / "a.shift"), str(workdir / "b.shift"), "--category", "K3"]
        assert main(argv) == 0
        assert main(argv + ["-o", str(workdir / "ab.shift")]) == 65
        assert "spelled alike" in capsys.readouterr().err
        assert not (workdir / "ab.shift").exists()

    def test_build_coproduct_category_gate(self, workdir, capsys):
        code = main([
            "build", "coproduct", str(workdir / "golden.shift"), str(workdir / "golden.shift"),
            "--category", "M2",
        ])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("operation, inputs, cat, code", [
        ("product", ("even.shift", "even.shift"), "K2", 65),  # the even shift is no SFT
        ("product", ("even.shift", "even.shift"), "K3", 0),
        ("product", ("golden.shift", "full.shift"), "M2", 0),
        ("kernel-pair", ("xor3.bmap",), "K2", 0),
        ("kernel-pair", ("xor3.bmap",), "P2", 65),  # full.shift has no designated point
    ])
    def test_build_checks_its_inputs(self, workdir, capsys, operation, inputs, cat, code):
        argv = ["build", operation, *(str(workdir / p) for p in inputs), "--category", cat]
        assert main(argv) == code
        assert ("error: not a" in capsys.readouterr().err) == (code == 65)

    def test_dynamics_report(self, workdir, capsys):
        code = main(["dynamics", str(workdir / "and.bmap"), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["spreading_state"] == "0"
        assert out["reversible"] == "NO"

    @pytest.mark.parametrize("argv", [
        ["build", "pullback", "xor3.bmap"],
        ["build", "product", "golden.shift", "golden.shift", "full.shift"],
        ["build", "terminal", "golden.shift"],
        ["check", "epic", "xor3.bmap", "full.shift"],
        ["check", "exists-morphism", "golden.shift"],
        ["check", "epic", "word_radius.bmap"],
        ["check", "epic", "negative_radius.bmap"],
    ], ids=["pullback-of-one-map", "product-of-three", "terminal-of-a-file", "epic-of-two-files",
            "exists-morphism-of-one-file", "radius-one", "radius-minus-1"])
    def test_wrong_invocation_exits_64(self, workdir, capsys, argv):
        for name, radius in (("word_radius", "one"), ("negative_radius", "-1")):
            (workdir / f"{name}.bmap").write_text(
                f"source: full.shift\ntarget: full.shift\nradius: {radius}\ndefault: 0\n")
        code = main([*argv[:2], *(str(workdir / a) for a in argv[2:]), "--category", "K2"])
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_wide_window_gets_verdicts(self, tmp_path, capsys):
        # radius 600 on the one-point shift: words of 1201 symbols, walked
        # without recursion
        (tmp_path / "one.shift").write_text("alphabet: 0\n")
        wide = tmp_path / "wide.bmap"
        wide.write_text("source: one.shift\ntarget: one.shift\nradius: 600\ndefault: 0\n")
        for prop in ("epic", "split-epic", "monic", "split-monic", "regular-monic"):
            assert main(["check", prop, str(wide), "--category", "K2"]) == 0
        assert main(["dynamics", str(wide)]) == 0
        capsys.readouterr()

    def test_parse_error_exit(self, workdir, capsys):
        (workdir / "broken.shift").write_text("nonsense line\n")
        assert main(["analyze", str(workdir / "broken.shift")]) == 64
        capsys.readouterr()

    def test_validation_error_exit(self, workdir, capsys):
        # M2 legality rejects a sofic object
        code = main(["check", "epic", str(workdir / "even.shift"), "--category", "M2"])
        assert code in (64, 65)
        capsys.readouterr()

    def test_missing_file_exit(self, capsys):
        assert main(["analyze", "no-such-file.shift"]) == 64
        capsys.readouterr()

    def test_budget_exit(self, workdir, capsys, monkeypatch):
        from sdcat import errors

        errors.set_budget(2)
        try:
            code = main(["analyze", str(workdir / "golden.shift")])
        finally:
            errors.set_budget(None)
        assert code == 69
        capsys.readouterr()

    @pytest.mark.parametrize("argv, text, code", [
        (["analyze", "adir"], None, 64),
        (["check", "epic", "in_dir.bmap"], "source: adir\ntarget: golden.shift\nradius: 1\n", 64),
        (["analyze", "bytes.shift"], None, 64),
        (["check", "epic", "bytes_source.bmap"], "source: bytes.shift\ntarget: golden.shift\nradius: 0\n", 64),
        # golden-mean maps with no rules: the word count of width 2r + 1
        # has some 41,800 digits at r = 100,000
        (["check", "epic", "wide.bmap"], "radius: 100000", 69),
        (["check", "epic", "wide.bmap"], "radius: 1000000", 69),
        (["check", "epic", "wide.bmap"], "radius: 100000000000000000000", 69),
    ], ids=["directory", "bmap-source-is-a-directory", "not-utf-8", "bmap-source-not-utf-8",
            "radius-1e5", "radius-1e6", "radius-1e20"])
    def test_bad_input_exits_at_once(self, workdir, capsys, argv, text, code):
        (workdir / "adir").mkdir()
        (workdir / "bytes.shift").write_bytes(b"\xff\xfe")
        if argv[-1] == "wide.bmap":
            text = f"source: golden.shift\ntarget: golden.shift\n{text}\n"
        if text:
            (workdir / argv[-1]).write_text(text)
        category = ["--category", "K2"] if argv[0] == "check" else []
        t0 = time.perf_counter()
        got = main([*argv[:-1], str(workdir / argv[-1]), *category])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert got == code
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert elapsed < 1.0
        # a file that is not UTF-8 is named, not only the codec's complaint
        if "bytes.shift" in (text or argv[-1]):
            assert str(workdir / "bytes.shift") in err

    def test_internal_error_exit(self, workdir, capsys, monkeypatch):
        from sdcat import classify as cl
        from sdcat import verdicts as v

        # `check epic` answers from a classify row whose epic verdict is NO
        # while split_epic is YES: the row contradicts itself
        def epic_via_row(f, cat):
            monkeypatch.setattr(cl, "is_epic", lambda *a, **k: v.no())
            return cl.classify(f, cat)["epic"]

        monkeypatch.setattr(cl, "is_split_epic", lambda *a, **k: v.yes())
        monkeypatch.setattr(cl, "is_epic", epic_via_row)
        code = main(["check", "epic", str(workdir / "xor3.bmap"), "--category", "K3"])
        assert code == 70
        err = capsys.readouterr().err
        assert "implication lattice" in err
        assert "Traceback" not in err

    def test_budget_env_is_read_once(self, monkeypatch):
        from sdcat import errors

        try:
            monkeypatch.setenv("SDCAT_BUDGET", "123")
            errors.set_budget(None)
            assert errors.budget() == 123
            monkeypatch.setenv("SDCAT_BUDGET", "456")
            assert errors.budget() == 123
            errors.set_budget(7)
            assert errors.budget() == 7
            errors.set_budget(None)
            assert errors.budget() == 456
        finally:
            errors.set_budget(None)

    def test_invalid_budget_env_falls_back_to_default(self, monkeypatch):
        from sdcat import errors

        try:
            monkeypatch.setenv("SDCAT_BUDGET", "lots")
            errors.set_budget(None)
            assert errors.budget() == errors.DEFAULT_BUDGET
        finally:
            errors.set_budget(None)

    def test_check_exists_morphism(self, workdir, capsys):
        code = main([
            "check", "exists-morphism", str(workdir / "golden.shift"),
            str(workdir / "full.shift"), "--category", "K3",
        ])
        assert code == 0
        capsys.readouterr()

    def test_build_terminal(self, workdir, capsys):
        out = workdir / "t.shift"
        assert main(["build", "terminal", "--category", "K3", "-o", str(out)]) == 0
        t = load_shift(str(out))
        assert t.count_words(3) == 1
        capsys.readouterr()

    def test_oracle_census_csv(self, capsys):
        code = main(["oracle", "census", "--check", "injective"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "rule_bits,injective"
        assert len(out) == 257

    def test_oracle_census_unknown_check_writes_nothing(self, capsys):
        code = main(["oracle", "census", "--check", "epic,bogus"])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "unknown brute property 'bogus'" in captured.err

    def test_oracle_census_json(self, capsys):
        code = main(["oracle", "census", "--check", "epic,injective", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["command"] == "oracle census"
        assert len(report["rows"]) == 256
        # rule 204 copies the middle symbol: the identity
        assert report["rows"][204] == {"rule_bits": 204, "epic": True, "injective": True}
        assert report["rows"][0] == {"rule_bits": 0, "epic": False, "injective": False}

    def test_oracle_census_takes_no_size_options(self, capsys):
        # the census is the radius-1 binary one, so it names no radius or
        # alphabet: either option is a usage error
        for option in ("--radius", "--alphabet"):
            assert main(["oracle", "census", option, "1"]) == 64
        assert capsys.readouterr().out == ""

    def test_build_seconds_ignore_a_wall_clock_step_back(self, workdir, capsys, monkeypatch):
        # a wall clock that steps back by a second at every reading, as
        # one set back by a time server may, leaves the timing nonnegative
        wall = iter(range(10**9, 0, -1))
        monkeypatch.setattr(time, "time", lambda: float(next(wall)))
        assert main(["build", "product", str(workdir / "golden.shift"), str(workdir / "golden.shift"),
                     "--category", "K3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seconds"] >= 0

    def test_closed_stdout_exits_74_without_a_traceback(self, workdir):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run([sys.executable, "-m", "sdcat.cli", "analyze", "golden.shift"],
                                 stdout=write_end, stderr=subprocess.PIPE, text=True,
                                 cwd=workdir, env=_child_env(), timeout=60)
        finally:
            os.close(write_end)
        assert out.returncode == 74
        assert out.stderr == ""

    @pytest.mark.parametrize("argv, ran, unrun", [
        (["analyze", "golden.shift"], {"analysis"},
         {"classify", "limits", "colimits", "dynamics", "oracle"}),
        (["check", "epic", "xor3.bmap", "--category", "K2"], {"analysis", "classify", "limits"},
         {"colimits", "dynamics", "oracle"}),
    ], ids=["analyze", "check-epic"])
    def test_a_command_runs_only_the_engines_it_calls(self, workdir, argv, ran, unrun):
        # python -m sdcat.cli in a fresh process, as every call is; at exit
        # an engine that never ran is still a lazy module, told apart by its
        # type, so none of its attributes is read
        code = ("import json, runpy, sys, types\n"
                "try:\n"
                "    runpy.run_module('sdcat.cli', run_name='__main__', alter_sys=True)\n"
                "finally:\n"
                "    print(json.dumps(sorted(k for k, m in sys.modules.items() if k.startswith('sdcat.')\n"
                "                            and type(m) is types.ModuleType)), file=sys.stderr)\n")
        out = subprocess.run([sys.executable, "-c", code, *argv, "--json"], capture_output=True,
                             text=True, cwd=workdir, env=_child_env(), timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["command"].startswith(argv[0])
        modules = {m.removeprefix("sdcat.") for m in json.loads(out.stderr)}
        assert ran <= modules and not unrun & modules, modules

    def test_cli_import_loads_neither_numpy_nor_dataclasses(self):
        # numpy serves only the brute-force oracle; the CLI registers
        # sdcat.oracle, which the traced benchmark run looks up, without
        # running it.  The records do without dataclasses, which would also
        # load inspect
        code = ("import sys, sdcat.cli; print('sdcat.oracle' in sys.modules, "
                "*(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_child_env(), timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "False", "False", "False"]


class TestFileFields:
    """A name that no field declares, a node declared twice, a second line
    of a key that takes one value, a window given two outputs, and a .shift
    line of the kind the file does not declare exit 64, naming what is
    wrong."""

    @pytest.mark.parametrize("text, named", [
        ("alphabet: 0 1\nnode: a\nedge: a a 0\nedge: a a 1\nforbidden: 11\n", "forbidden:"),
        ("alphabet: 0 1\nkind: graph\nnode: a\nedge: a a 0\nforbidden: 11\n", "forbidden:"),
        ("alphabet: 0 1\nkind: sft\nnode: a\nedge: a a 0\nedge: a a 1\n", "node:"),
        ("alphabet: 0 1\nnode: a\nedge: a a 0\nedge: a a 2\n", "'2'"),
        ("alphabet: 0 1\nnode: a\nedge: a a 0\nedge: a b 1\n", "'b'"),
        ("alphabet: 0 1\npoint: 2\n", "'2'"),
        # a key that takes one value takes one line, and a node one declaration
        ("alphabet: 0 1\nalphabet: 0 1 2\n", "second alphabet:"),
        ("alphabet: 0 1\nkind: graph\nkind: sft\n", "second kind:"),
        ("alphabet: 0 1\npoint: 0\npoint: 1\n", "second point:"),
        ("alphabet: 0 1\nnode: a a\nedge: a a 0\n", "'a' declared twice"),
    ], ids=["both-kinds", "forbidden-in-graph", "graph-lines-in-sft", "edge-label",
            "edge-endpoint", "point", "alphabet-twice", "kind-twice", "point-twice",
            "node-twice"])
    def test_shift_field_exits_64(self, tmp_path, capsys, text, named):
        (tmp_path / "x.shift").write_text(text)
        assert main(["analyze", str(tmp_path / "x.shift")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("rules, named", [
        # a window repeated with its output is one rule; the third line conflicts
        ("rule: 0 -> 1\nrule: 0 -> 1\nrule: 1 -> 1\nrule: 0 -> 0\n", "'0' given two outputs, '1' and '0'"),
        ("rule: 0 -> 1\ndefault: 2\n", "'2'"),
        ("source: full.shift\nrule: 0 -> 1\n", "second source:"),
        ("target: full.shift\nrule: 0 -> 1\n", "second target:"),
        ("radius: 1\nrule: 0 -> 1\n", "second radius:"),
        ("default: 0\ndefault: 1\n", "second default:"),
    ], ids=["window-with-two-outputs", "default", "source-twice", "target-twice",
            "radius-twice", "default-twice"])
    def test_bmap_field_exits_64(self, workdir, capsys, rules, named):
        (workdir / "x.bmap").write_text(
            "source: full.shift\ntarget: full.shift\nradius: 0\n" + rules)
        assert main(["check", "epic", str(workdir / "x.bmap"), "--category", "K2"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


# ---------------------------------------------------------------------------
# Input-file fuzz: grammar-shaped files, now and then mutated, through main

_SYMBOLS = ("0", "1", "2")


@st.composite
def _shift_lines(draw):
    alphabet = draw(st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=3, unique=True))
    lines = [f"alphabet: {' '.join(alphabet)}"]
    if draw(st.booleans()):
        lines.append("kind: sft")
        words = draw(st.lists(st.text("".join(alphabet), min_size=1, max_size=3), max_size=3))
        if words:
            lines.append("forbidden: " + " ".join(words))
    else:
        n = draw(st.integers(1, 3))
        lines += ["kind: graph", "node: " + " ".join(f"n{i}" for i in range(n))]
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                        st.sampled_from(alphabet)), max_size=7, unique=True))
        lines += [f"edge: n{i} n{j} {a}" for i, j, a in edges]
    if draw(st.integers(0, 3)) == 0:
        lines.append(f"point: {draw(st.sampled_from(alphabet))}")
    return alphabet, lines


@st.composite
def _bmap_lines(draw, source, target, target_name):
    radius = draw(st.integers(0, 1))
    windows = st.text("".join(source), min_size=2 * radius + 1, max_size=2 * radius + 1)
    rules = draw(st.dictionaries(windows, st.sampled_from(target), max_size=6))
    lines = ["source: a.shift", f"target: {target_name}", f"radius: {radius}"]
    lines += [f"rule: {w} -> {t}" for w, t in rules.items()]
    if draw(st.integers(0, 3)):
        lines.append(f"default: {draw(st.sampled_from(target))}")
    return lines


@st.composite
def _mutated(draw, lines):
    """The file's bytes; one time in eight with one mutation: a line
    dropped or repeated, two tokens swapped, or a stray byte."""
    lines = list(lines)
    how = draw(st.integers(0, 31))
    k = draw(st.integers(0, len(lines) - 1))
    if how == 1:
        del lines[k]
    elif how == 2:
        lines.insert(k, lines[k])
    elif how == 3:
        tokens = [(i, j) for i, line in enumerate(lines) for j in range(len(line.split()))]
        (i1, j1), (i2, j2) = draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2))
        split = [line.split() for line in lines]
        split[i1][j1], split[i2][j2] = split[i2][j2], split[i1][j1]
        lines = [" ".join(words) for words in split]
    data = ("\n".join(lines) + "\n").encode()
    if how == 4:
        at = draw(st.integers(0, len(data)))
        stray = draw(st.sampled_from([b"\xff", b"\x00", b":", b"#", b",", b"(", b">", b" ", b"\n"]))
        data = data[:at] + stray + data[at:]
    return data


@st.composite
def _input_files(draw):
    a_alphabet, a = draw(_shift_lines())
    b_alphabet, b = draw(_shift_lines())
    to_b = draw(st.booleans())
    m = draw(_bmap_lines(a_alphabet, b_alphabet if to_b else a_alphabet,
                         "b.shift" if to_b else "a.shift"))
    return {name: draw(_mutated(lines)) for name, lines in
            (("a.shift", a), ("b.shift", b), ("m.bmap", m))}


_FUZZ_COMMANDS = [
    ["analyze", "a.shift"],
    ["check", "epic", "m.bmap", "--category", "K2"],
    ["check", "monic", "m.bmap", "--category", "K3"],
    ["check", "injective", "m.bmap", "--category", "K3"],
    ["check", "preinjective", "m.bmap", "--category", "K2"],
    ["check", "regular-monic", "m.bmap", "--category", "K3"],
    ["check", "split-epic", "m.bmap", "--category", "K2"],
    ["check", "exists-morphism", "a.shift", "b.shift", "--category", "K3"],
    ["build", "product", "a.shift", "b.shift", "--category", "K3", "-o", "out.shift"],
    ["build", "image", "m.bmap", "--category", "K2", "-o", "out.shift"],
    ["coeq-id", "m.bmap", "--category", "K3"],
    ["dynamics", "m.bmap"],
]


class TestInputFuzz:
    @given(_input_files(), st.sampled_from(_FUZZ_COMMANDS))
    @settings(max_examples=150, deadline=None)
    def test_every_input_gets_an_answer_or_an_error(self, files, argv):
        # exit 2 is UNDECIDED, an answer; 70 (a failed consistency check)
        # and a traceback are not
        from sdcat.errors import set_budget

        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                pathlib.Path(tmp, name).write_bytes(data)
            argv = [os.path.join(tmp, arg) if "." in arg else arg for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            set_budget(20_000)
            try:
                with ceiling(20, " ".join(argv[:2])), redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            finally:
                set_budget(None)
        assert code in (0, 1, 2, 64, 65, 69), (code, err.getvalue(), files)
