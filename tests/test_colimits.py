"""Coequalizers, local equivalence relations, kernels and cokernels."""

import pytest

from sdcat import analysis as an
from sdcat import colimits as co
from sdcat import oracle as orc
from sdcat.core import (
    compose,
    constant_map,
    diagonal_relation,
    full_shift,
    identity_map,
    make_block_map,
    make_presentation,
    maps_equal,
    shift_power,
    zero_map,
)
from sdcat.errors import ValidationError
from sdcat.limits import CategoryTag

K2, K3, M2 = (CategoryTag.parse(t) for t in ("K2", "K3", "M2"))
P2, P3 = CategoryTag.parse("P2"), CategoryTag.parse("P3")


class TestLocalEquivalence:
    def test_diagonal_is_local_at_window_one(self, full2):
        diag = diagonal_relation(full2)
        rel = an.SubshiftRelation(diag, full2, full2)
        v = co.is_local_equivalence(rel)
        assert v.yes and v.certificate["window"] == 1

    def test_six_symbol_example(self, six_symbol_relation):
        checks = co.relation_checks(six_symbol_relation)
        assert checks == {
            "reflexive": True, "symmetric": True, "transitive_on_periodic": True,
        }
        v = co.is_local_equivalence(six_symbol_relation, 3)
        assert v.yes and v.certificate["window"] == 1
        classes = v.certificate["classes"]
        assert any(("1",) in c and ("3",) in c for c in classes)

    def test_binary_carry_not_local(self, carry_relation):
        checks = co.relation_checks(carry_relation, period_bound=4)
        assert checks["reflexive"] and checks["symmetric"]
        assert checks["transitive_on_periodic"]
        assert an.is_sft(carry_relation.presentation).yes
        v = co.is_local_equivalence(carry_relation, 6)
        assert v.no
        assert v.bound_used == 6

    def test_non_symmetric_rejected(self, xor2):
        rel = an.graph_relation(xor2)
        with pytest.raises(ValidationError):
            co.is_local_equivalence(rel)


class TestLocalClosure:
    def test_diagonal_generator_stays_diagonal(self, full2):
        diag = diagonal_relation(full2)
        loc = co.local_closure(diag, full2, 2)
        assert loc.relation.language_equal(diag)

    def test_flip_generator_fills_square_at_window_one(self, flip, full2):
        gen = an.graph_relation(flip).presentation
        loc = co.local_closure(gen, full2, 1)
        from sdcat.core import product_presentation

        assert loc.relation.language_equal(product_presentation(full2, full2))

    def test_equal_maps_generate_diagonal(self, xor2, full2):
        # generator {(f(x), f(x))} stays inside the diagonal
        from sdcat.analysis import graph_relation

        gen = co.local_closure(diagonal_relation(full2), full2, 2)
        assert gen.relation.language_equal(diagonal_relation(full2))

    def test_closure_monotone_in_window(self, flip, full2):
        gen = an.graph_relation(flip).presentation
        r1 = co.local_closure(gen, full2, 1).relation
        r2 = co.local_closure(gen, full2, 2).relation
        assert r2.included_in(r1)
        assert gen.included_in(r2)

    def test_closure_is_equivalence(self, flip, full2):
        gen = an.graph_relation(flip).presentation
        loc = co.local_closure(gen, full2, 2)
        rel = an.SubshiftRelation(loc.relation, full2, full2)
        checks = co.relation_checks(rel)
        assert checks["reflexive"] and checks["symmetric"]


class TestCoequalizerId:
    def test_identity_coequalizes_itself(self, full2):
        res = co.coequalizer_id(identity_map(full2), K3)
        assert res.exists
        assert maps_equal(res.legs[0], identity_map(full2))

    def test_flip_gives_xor2_quotient(self, flip, xor2):
        res = co.coequalizer_id(flip, K3)
        assert res.exists
        q = res.legs[0]
        assert maps_equal(compose(q, flip), q)
        assert an.kernel_set(q).presentation.language_equal(
            an.kernel_set(xor2).presentation
        )

    def test_spreading_state_gives_trivial_map(self, and_rule):
        res = co.coequalizer_id(and_rule, K3)
        assert res.exists
        q = res.legs[0]
        assert q.target.count_words(2) == 1
        assert maps_equal(compose(q, and_rule), q)

    def test_nilpotent_constant(self, const0):
        res = co.coequalizer_id(const0, K3)
        assert res.exists and res.legs[0].target.count_words(2) == 1

    def test_shift_power_chain_transitive(self, sigma):
        res = co.coequalizer_id(sigma, K3)
        assert res.exists
        assert "chain transitive" in res.reason

    def test_orbit_quotient_keeps_symbols_with_bars_apart(self):
        # orbit tokens joined from words would make {a|b,a} and {a,b|c}
        # one symbol; the local closure names its classes c<i>
        syms = ("a|b", "a", "c", "b|c")
        x = full_shift(syms)
        swap = dict(zip(syms, ("a", "a|b", "b|c", "c")))
        f = make_block_map(x, x, 0, {(a,): swap[a] for a in syms})
        res = co.coequalizer_id(f, K3)
        assert res.exists and res.reason.startswith("visibly eventually periodic")
        q = res.legs[0]
        assert maps_equal(compose(q, f), q)
        assert len(q.target.alphabet) == 8

    @pytest.mark.parametrize("stage", ["fiber_presentation", "local_closure"])
    def test_orbit_quotient_budget_exit_names_its_stage(self, flip, stage, monkeypatch):
        # the flip takes the eventually periodic branch; a budget exit in
        # either stage of its orbit quotient is reported with its message
        from sdcat.errors import budget, check_budget

        def over(*args):
            check_budget(budget() + 1, f"{stage} stage")

        monkeypatch.setattr(co, stage, over)
        res = co.coequalizer_id(flip, K3)
        assert res.status == "undecided"
        assert res.reason == (f"orbit quotient construction: {stage} stage: "
                              f"size {budget() + 1} exceeds budget {budget()}")
        assert res.bound_used == {"budget": budget()}

    def test_powers_only_on_mixing_sfts(self, monkeypatch):
        # a strictly sofic mixing source never reaches the eventually
        # periodic branch, so no power of f is composed for it
        from sdcat import dynamics as dy

        x = make_presentation(["0", "1", "2"], "graph", (["a", "b"], [
            ("a", "a", "1"), ("a", "a", "2"), ("a", "b", "0"), ("b", "a", "0")]))
        f = make_block_map(x, x, 0, {("0",): "0", ("1",): "2", ("2",): "1"})
        calls = []
        monkeypatch.setattr(dy, "eventual_periodicity", lambda *a, **k: calls.append(a))
        co.coequalizer_id(f, K3, window_cap=2)
        assert calls == []

    def test_mediating_audit_flip(self, flip, full2, full3):
        res = co.coequalizer_id(flip, K3)
        q = res.legs[0]
        kq = an.kernel_set(q).presentation
        for h in orc.enumerate_block_maps(orc.EnumerationSpec(full2, full2, radius=1)):
            if not maps_equal(compose(h, flip), h):
                continue
            # h must factor through q: Ker q must sit inside Ker h
            kh = an.kernel_set(h).presentation
            assert kq.included_in(kh)

    def test_xor2_closure_collapses_to_trivial(self, xor2, full2):
        # the minimal local equivalence containing the graph of xor2 merges
        # every word class, so the trivial map coequalizes (id, xor2)
        gen = an.graph_relation(xor2).presentation
        from sdcat.core import product_presentation

        for n in (1, 2, 3):
            loc = co.local_closure(gen, full2, n)
            assert loc.relation.language_equal(product_presentation(full2, full2))
        res = co.coequalizer_id(xor2, K3, window_cap=2)
        assert res.exists
        assert res.legs[0].target.count_words(2) == 1
        assert maps_equal(compose(res.legs[0], xor2), res.legs[0])

    def test_closure_search_reports_undecided_when_unstable(self, full2, golden):
        # this golden-mean rule reads the window's right symbol, so it is
        # the shift, an exact branch
        rule = {w: ("0" if w[1] == "1" else ("1" if w[2] == "1" else "0"))
                for w in golden.words(3)}
        f = make_block_map(golden, golden, 1, rule)
        res = co.coequalizer_id(f, K2, window_cap=2, ep_cap=3)
        assert res.status == "exists"
        assert res.reason == "shift power 1 on a mixing shift is chain transitive"
        # census rule 30 takes no exact branch, is not reversible, and its
        # closure does not stabilize at window 1: the engine answers
        # undecided rather than guess
        f = make_block_map(full2, full2, 1, {w: str(30 >> i & 1) for i, w in enumerate(full2.words(3))})
        res = co.coequalizer_id(f, K2, window_cap=1)
        assert res.status == "undecided"
        assert res.reason == "no exact branch applied and the closure search did not stabilize"

    def test_one_closure_search_and_dynamics_only_for_the_note(self, full2, flip, monkeypatch):
        # the shift after the flip is reversible and no exact branch takes
        # it; the closure search runs once, and the reversibility and chain
        # checks run only to word an UNDECIDED
        from sdcat import dynamics as dy

        calls = []
        for owner, name in ((co, "_closure_search"), (dy, "is_reversible"),
                            (dy, "chain_transitive_upto")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        f = compose(shift_power(full2, 1), flip)
        assert co.coequalizer_id(f, K3, window_cap=2).exists
        assert calls == ["_closure_search"]
        calls.clear()
        res = co.coequalizer_id(f, K3, window_cap=1, level_cap=3)
        assert res.status == "undecided" and res.reason.startswith("reversible and chain transitive")
        assert calls == ["_closure_search", "is_reversible", "chain_transitive_upto"]


class TestKernelCokernel:
    def test_kernel_of_zero_map_is_everything(self, full2p):
        z = zero_map(full2p, full2p)
        res = co.kernel_p(z, P2)
        assert res.exists and res.object.language_equal(full2p)

    def test_kernel_of_xor2(self, full2p):
        rule = {w: str((int(w[1]) + int(w[2])) % 2) for w in full2p.words(3)}
        f = make_block_map(full2p, full2p, 1, rule)
        res = co.kernel_p(f, P2)
        # f^{-1}(0-point) = {all-0, all-1}: two mixing constituents
        assert res.status == "not-exists"

    def test_cokernel_of_zero_is_identity(self, full2p):
        res = co.cokernel_p(zero_map(full2p, full2p), P2)
        assert res.exists and maps_equal(res.legs[0], identity_map(full2p))

    def test_cokernel_of_surjection_is_zero(self, full2p):
        rule = {w: str((int(w[1]) + int(w[2])) % 2) for w in full2p.words(3)}
        f = make_block_map(full2p, full2p, 1, rule)
        res = co.cokernel_p(f, P2)
        assert res.exists and res.legs[0].target.count_words(2) == 1

    def test_cokernel_otherwise_fails(self, full2p, golden):
        gp = golden.with_point("0")
        inc = make_block_map(gp, full2p, 0, {("0",): "0", ("1",): "1"})
        res = co.cokernel_p(inc, P3)
        assert res.status == "not-exists"
        if res.legs:
            h = res.legs[0]
            assert maps_equal(
                compose(h, inc), zero_map(gp, h.target)
            )

    def test_cokernel_of_a_non_onto_endomorphism_fails_with_its_leg(self, full2p):
        # the AND rule's surjectivity NO carries a Garden-of-Eden pair, so
        # the separating leg is built at the missed word's length
        rule = {w: str(int(w[1]) & int(w[2])) for w in full2p.words(3)}
        f = make_block_map(full2p, full2p, 1, rule)
        res = co.cokernel_p(f, P2)
        assert res.status == "not-exists" and len(res.legs) == 1
        h = res.legs[0]
        assert h.radius == len(an.missed_word(f)) == 3
        assert maps_equal(compose(h, f), zero_map(full2p, h.target))
        assert not maps_equal(h, zero_map(full2p, h.target))
