import pytest

from cup import engine as eng
from cup import parser as ps
from cup import soundness as sd
from cup import terms as tm
from cup import trees as tr
from cup.errors import BodyNotInModel, NotHShapedRoot, PreconditionViolated, ProofInvalid
from cup.formulas import Calculus, HClause
from cup.soundness import (
    audit_proof,
    build_candidate,
    conservative_extension_check,
    verify_postfixed,
)
from cup.trees import InstanceConfig, Interpretation, leaf

from helpers import A, C, V, scons, theta, tree_from_text


class TestCollectDeltas:
    def test_ground_hypothesis_single_use(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["member67"]
        deltas = build_candidate(res.tree, prog, 2, 0, calc).deltas
        assert len(deltas) == 1
        assert deltas[0].bindings == ()

    def test_from_delta_is_successor(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]
        deltas = build_candidate(res.tree, prog, 2, 0, calc).deltas
        assert len(deltas) == 1
        ((x, bound),) = deltas[0].bindings
        eigen = res.tree.children[0].eigen
        assert bound == A(C("s"), C(eigen))

    def test_comember_delta(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["comember"]
        deltas = build_candidate(res.tree, prog, 2, 0, calc).deltas
        assert len(deltas) == 1
        names = [x for x, _t in deltas[0].bindings]
        assert len(names) == 2

    def test_no_hypothesis_use(self):
        prog = ps.parse_program("const 0 : i. const p : i -> o.\np 0.")
        g = ps.parse_goal("p 0", prog)
        res = eng.coprove(prog, g, eng.SearchConfig(calculus=Calculus.FOHC))
        assert res.proved
        assert build_candidate(res.tree, prog, 2, 0, Calculus.FOHC).deltas == []

    def test_non_h_shaped_root_rejected(self, bitstream_program):
        g = ps.parse_goal("bit 0 /\\ bit 1", bitstream_program)
        res = eng.coprove(bitstream_program, g, eng.SearchConfig(calculus=Calculus.FOHC))
        assert res.proved
        with pytest.raises(NotHShapedRoot):
            build_candidate(res.tree, bitstream_program, 2, 0, Calculus.FOHC)

    def test_invalid_proof_rejected(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]
        broken = eng.ProofTree(res.tree.sequent, "co-fix", children=())
        with pytest.raises(ProofInvalid):
            build_candidate(broken, prog, 2, 0, calc)


def _bound_trees(sig, subst, depth):
    """Each binding of a term-level substitution rendered at the depth.
    `atom_to_tree` renders atoms, so a binding t is read off `from t 0` one
    level down."""
    return {c: tr.atom_to_tree(sig, A(C("from"), t, C("0")), depth + 1).children[0] for c, t in subst.items()}


def theta_for(word, deltas, eigens, base):
    """The substitution that `_thetas` yields with the word."""
    return dict(sd._thetas(deltas, eigens, base, len(word)))[word]


class TestTheta:
    def _from_setup(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]
        deltas = build_candidate(res.tree, prog, 2, 0, calc).deltas
        eigen = res.tree.children[0].eigen
        return prog, res, deltas, eigen

    def test_base_case(self, regression_proofs):
        prog, res, deltas, eigen = self._from_setup(regression_proofs)
        out = theta_for((), deltas, [eigen], {eigen: C("0")})
        assert out == {eigen: C("0")}
        assert _bound_trees(prog.signature, out, 4) == {eigen: leaf("0")}

    def test_recursive_steps(self, regression_proofs):
        prog, res, deltas, eigen = self._from_setup(regression_proofs)
        one = theta_for((1,), deltas, [eigen], {eigen: C("0")})
        assert _bound_trees(prog.signature, one, 4) == {eigen: tree_from_text("s(0)")}
        two = theta_for((1, 1), deltas, [eigen], {eigen: C("0")})
        assert _bound_trees(prog.signature, two, 4) == {eigen: tree_from_text("s(s(0))")}

    def test_term_level_agrees_with_tree_level(self, regression_proofs):
        prog, res, deltas, eigen = self._from_setup(regression_proofs)
        sig = prog.signature.extend(eigen, tm.IOTA)
        for word in ((), (1,), (1, 1), (1, 1, 1)):
            at_term = theta_for(word, deltas, [eigen], {eigen: C("0")})
            at_tree = theta(word, deltas, [eigen], {eigen: leaf("0")}, 5, sig)
            assert _bound_trees(prog.signature, at_term, 5) == at_tree

    def test_stability_under_depth_refinement(self, regression_proofs):
        prog, res, deltas, eigen = self._from_setup(regression_proofs)
        out = theta_for((1, 1), deltas, [eigen], {eigen: C("0")})
        for n in (2, 3, 4):
            fine = _bound_trees(prog.signature, out, n + 1)
            coarse = _bound_trees(prog.signature, out, n)
            assert {c: tr.truncate(t, n) for c, t in fine.items()} == coarse

    def test_words_come_shortest_first_each_from_its_prefix(self, regression_proofs):
        prog, res, deltas, eigen = self._from_setup(regression_proofs)
        ((x, _bound),) = deltas[0].bindings
        # record 1 steps the start value once, record 2 twice
        twice = sd.DeltaRecord(((x, A(C("s"), A(C("s"), C(eigen)))),))
        pairs = list(sd._thetas([deltas[0], twice], [eigen], {eigen: C("0")}, 2))
        assert [w for w, _th in pairs] == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        for w, th in pairs:
            want = C("0")
            for _ in range(sum(w)):
                want = A(C("s"), want)
            assert th == {eigen: want}, w


class TestBuildCandidate:
    def test_fact_case_is_single_head(self):
        prog = ps.parse_program("const 0 : i. const p : i -> o.\np 0.")
        g = ps.parse_goal("p 0", prog)
        res = eng.coprove(prog, g, eng.SearchConfig(calculus=Calculus.FOHC))
        cand = build_candidate(res.tree, prog, 3, 2)
        assert cand.interpretation.atoms == {Tree_p0()}

    def test_bitstream_candidate_contents(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["bitstream"]
        cand = build_candidate(res.tree, prog, 4, 1, calculus=calc)
        texts = {tr.tree_to_text(t) for t in cand.interpretation.atoms}
        assert "bit(0)" in texts
        assert any(t.startswith("bitstream(scons(0,") for t in texts)

    def test_from_candidate_words(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]
        cand = build_candidate(res.tree, prog, 6, 3, calculus=calc)
        texts = {tr.tree_to_text(t) for t in cand.interpretation.atoms}
        # heads for the start values 0, s 0, s(s 0), ... produced by the words
        assert any(t.startswith("from(0,") for t in texts)
        assert any(t.startswith("from(s(0),") for t in texts)
        assert any(t.startswith("from(s(s(0)),") for t in texts)

    def test_side_atoms_for_implicative_hypothesis(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["comember"]
        cand = build_candidate(res.tree, prog, 4, 0, calculus=calc)
        assert any(tm.alpha_eq(a, A(C("bit"), C("0"))) for a in cand.side_atoms)


def Tree_p0():
    from cup.trees import Tree, leaf

    return Tree("p", (leaf("0"),))


class TestVerifyPostfixed:
    def test_unsupported_atom_fails_with_counterexample(self):
        prog = ps.parse_program("const p : o.")
        interp = Interpretation(1, frozenset({leaf("p")}), {leaf("p"): (C("p"),)})
        ok, cex = verify_postfixed(interp, prog, InstanceConfig())
        assert not ok and cex == C("p")

    def test_member_candidate_with_facts(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["member67"]
        cand = build_candidate(res.tree, prog, 4, 0, calculus=calc)
        merged = sd.merge_with_model(cand, prog, InstanceConfig())
        ok, cex = verify_postfixed(merged, prog, InstanceConfig())
        assert ok, cex

    def test_all_regressions_all_depths(self, regression_proofs):
        for name, (prog, _g, calc, res) in regression_proofs.items():
            for depth in (2, 4, 6):
                for budget in (0, 3):
                    report = audit_proof(res.tree, prog, depth, budget, calculus=calc)
                    assert report.verified, (name, depth, budget, report.counterexample)


class TestConservativeExtension:
    def test_bitstream_lemma(self, bitstream_program):
        atom = ps.parse_goal("bitstream [0|n_str 0]", bitstream_program).term
        report = conservative_extension_check(bitstream_program, [HClause((), (), atom)], 4)
        assert report.equal and bool(report)

    def test_from_instances(self, from_program):
        insts = [
            HClause((), (), ps.parse_goal(f"from {t} (fr_str {t})", from_program).term)
            for t in ("0", "(s 0)")
        ]
        report = conservative_extension_check(from_program, insts, 4)
        assert report.equal

    def test_alien_fact_detected(self):
        text = open("src/cup/corpus/bitstream.cup").read() + "const s : i -> i.\n"
        prog = ps.parse_program(text)
        alien = ps.parse_goal("bit (s 0)", prog).term
        report = conservative_extension_check(prog, [HClause((), (), alien)], 4)
        assert not report.equal
        assert any(t.label == "bit" for t in report.only_in_extended)
        # the program keeps the base universe only, and the same report
        # comes back from it
        assert list(prog._universes) == [3] and list(prog._universes[3].explored) == [4]
        assert conservative_extension_check(prog, [HClause((), (), alien)], 4) == report

    def test_body_must_hold(self, bitstream_program):
        bad = HClause((), (A(C("bit"), scons(C("0"), C("0"))),), A(C("bit"), C("0")))
        with pytest.raises(BodyNotInModel):
            conservative_extension_check(bitstream_program, [bad], 3)

    def test_unrenderable_instance_raises(self, fresh_program):
        # an atom the model cannot represent gives no vacuous `equal`
        program = fresh_program("bitstream")
        atom = ps.parse_goal("bitstream (fix \\x. x)", program).term
        with pytest.raises(PreconditionViolated):
            conservative_extension_check(program, [HClause((), (), atom)], 3)

    def test_non_ground_instance_rejected(self, bitstream_program):
        h = HClause(("x",), (), A(C("bit"), V("x")))
        with pytest.raises(BodyNotInModel):
            conservative_extension_check(bitstream_program, [h], 3)


# the acceptance grid's audit sizes: for each regression proof and depth 2-6,
# the candidate sizes at word budgets 0-3 and the merged size
AUDIT_GRID = {
    "member67": [((2, 2, 2, 2), 5)] + [((2, 2, 2, 2), 10)] * 4,
    "bitstream": [((2, 2, 2, 2), 3)] + [((2, 2, 2, 2), 4)] * 4,
    "from": [((2, 2, 2, 2), 3), ((2, 3, 3, 3), 5), ((2, 3, 4, 4), 7), ((2, 3, 4, 5), 9), ((2, 3, 4, 5), 11)],
    "comember": [((3, 3, 3, 3), 14), ((3, 4, 4, 4), 26), ((3, 4, 5, 5), 38), ((3, 4, 5, 6), 50), ((3, 4, 5, 6), 62)],
}


class TestHarnessReport:
    def test_acceptance_grid_sizes(self, regression_proofs):
        got, want = {}, {}
        for name, (prog, _g, calc, res) in regression_proofs.items():
            for depth, (candidates, merged) in zip(range(2, 7), AUDIT_GRID[name]):
                for budget in range(4):
                    report = audit_proof(res.tree, prog, depth, budget, calculus=calc)
                    got[name, depth, budget] = (report.candidate_size, report.merged_size, report.verified)
                    want[name, depth, budget] = (candidates[budget], merged, True)
        assert len(got) == 80 and got == want

    def test_report_shape(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]
        report = audit_proof(res.tree, prog, 4, 2, calculus=calc)
        data = report.to_dict(prog)
        assert data["verified"] is True
        # terms in source syntax
        eigen = res.tree.children[0].eigen
        assert data["deltas"] == [{"index": 1, "bindings": [["x", f"s {eigen}"]]}]
        assert data["coinductive_hypothesis_uses"] == 1
        assert data["word_budget"] == 2
        assert data["counterexample"] is None

    def test_counterexample_in_source_syntax(self, from_program):
        report = sd.HarnessReport(0, [], 2, 0, False, A(C("from"), A(C("s"), C("0")), C("0")), 1, 1)
        assert report.to_dict(from_program)["counterexample"] == "from (s 0) 0"
