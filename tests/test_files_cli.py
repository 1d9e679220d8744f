"""Interchange formats and the command-line surface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import sdcat
from sdcat import analysis as an
from sdcat.cli import main
from sdcat.core import full_shift, maps_equal, product_presentation
from sdcat.files import (
    format_shift,
    load_bmap,
    load_shift,
    parse_shift,
    save_bmap,
    save_shift,
)
from sdcat.errors import ParseError


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

    def test_cli_import_loads_neither_numpy_nor_dataclasses(self):
        # numpy serves only the brute-force oracle; the CLI still imports
        # sdcat.oracle, which the traced benchmark run looks up.  The records
        # do without dataclasses, which would also load inspect
        code = ("import sys, sdcat.cli; print('sdcat.oracle' in sys.modules, "
                "*(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')))")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(sdcat.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "False", "False", "False"]


class TestFileFields:
    """A name that no field declares, a window given two outputs, and a
    .shift line of the kind the file does not declare exit 64, naming what
    is wrong."""

    @pytest.mark.parametrize("text, named", [
        ("alphabet: 0 1\nnode: a\nedge: a a 0\nedge: a a 1\nforbidden: 11\n", "forbidden:"),
        ("alphabet: 0 1\nkind: graph\nnode: a\nedge: a a 0\nforbidden: 11\n", "forbidden:"),
        ("alphabet: 0 1\nkind: sft\nnode: a\nedge: a a 0\nedge: a a 1\n", "node:"),
        ("alphabet: 0 1\nnode: a\nedge: a a 0\nedge: a a 2\n", "'2'"),
        ("alphabet: 0 1\nnode: a\nedge: a a 0\nedge: a b 1\n", "'b'"),
        ("alphabet: 0 1\npoint: 2\n", "'2'"),
    ], ids=["both-kinds", "forbidden-in-graph", "graph-lines-in-sft", "edge-label",
            "edge-endpoint", "point"])
    def test_shift_field_exits_64(self, tmp_path, capsys, text, named):
        (tmp_path / "x.shift").write_text(text)
        assert main(["analyze", str(tmp_path / "x.shift")]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("rules, named", [
        # a window repeated with its output is one rule; the third line conflicts
        ("rule: 0 -> 1\nrule: 0 -> 1\nrule: 1 -> 1\nrule: 0 -> 0\n", "'0' given two outputs, '1' and '0'"),
        ("rule: 0 -> 1\ndefault: 2\n", "'2'"),
    ], ids=["window-with-two-outputs", "default"])
    def test_bmap_field_exits_64(self, workdir, capsys, rules, named):
        (workdir / "x.bmap").write_text(
            "source: full.shift\ntarget: full.shift\nradius: 0\n" + rules)
        assert main(["check", "epic", str(workdir / "x.bmap"), "--category", "K2"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
