"""Randomized kernel property suites.

Seeded generators keep the runs reproducible and let the case counts be
exact: the per-property counts below sum to 10,000 checked cases.
"""

import random

from cup import engine as eng
from cup import parser as ps
from cup import terms as tm
from cup import trees as tr
from cup.formulas import Calculus
from cup.terms import App, Fix, IOTA, Lam

from helpers import (
    GEN_SIG,
    alpha_eq_oracle,
    fn_type,
    gen_term,
    gen_tree,
    random_propositional_program,
    rename_binders,
)

CASES = {
    "type_preservation": 3000,  # 1000 each: substitution, beta, fix-beta
    "alpha_congruence": 2000,
    "beta_idempotence": 1500,
    "ultrametric": 2000,
    "t_monotonicity": 600,
    "checker_searcher_agreement": 500,
    "fragment_monotonicity": 400,
}

assert sum(CASES.values()) == 10_000


def test_case_budget_is_ten_thousand():
    assert sum(CASES.values()) == 10_000


class TestTypePreservation:
    def test_substitution(self):
        rng = random.Random(101)
        n = CASES["type_preservation"] // 3
        for _ in range(n):
            ty = rng.choice([IOTA, fn_type(IOTA, IOTA)])
            t = gen_term(rng, ty, {"x": IOTA}, rng.randint(0, 3))
            value = gen_term(rng, IOTA, {}, rng.randint(0, 2))
            before = tm.typecheck(GEN_SIG, {"x": IOTA}, t, expected=ty)
            after_term = tm.substitute(t, [("x", value)])
            after = tm.typecheck(GEN_SIG, {"x": IOTA}, after_term, expected=ty)
            assert before == after

    def test_beta(self):
        rng = random.Random(102)
        n = CASES["type_preservation"] // 3
        for _ in range(n):
            ty = rng.choice([IOTA, fn_type(IOTA, IOTA)])
            t = gen_term(rng, ty, {}, rng.randint(0, 4))
            before = tm.typecheck(GEN_SIG, {}, t, expected=ty)
            after = tm.typecheck(GEN_SIG, {}, tm.beta_normalize(t), expected=ty)
            assert before == after

    def test_fixbeta(self):
        rng = random.Random(103)
        n = CASES["type_preservation"] // 3
        done = 0
        while done < n:
            ty = rng.choice([IOTA, fn_type(IOTA, IOTA)])
            t = gen_term(rng, ty, {}, rng.randint(1, 4))
            t = tm.beta_normalize(t)
            if not tm.has_fix(t):
                t = Fix(Lam("w", gen_term(rng, IOTA, {"w": IOTA}, 1)))
                ty = IOTA
            before = tm.typecheck(GEN_SIG, {}, t, expected=ty)
            after = tm.typecheck(GEN_SIG, {}, tm.fixbeta_unfold(t), expected=ty)
            assert before == after
            done += 1


class TestAlphaCongruence:
    def test_equivalence_and_congruence(self):
        rng = random.Random(104)
        n = CASES["alpha_congruence"]
        for i in range(n):
            ty = rng.choice([IOTA, fn_type(IOTA, IOTA)])
            t = gen_term(rng, ty, {}, rng.randint(0, 3))
            t2 = rename_binders(rng, t)
            t3 = rename_binders(rng, t2)
            # reflexivity, symmetry, transitivity on alpha-variants
            assert tm.alpha_eq(t, t)
            assert tm.alpha_eq(t, t2) and tm.alpha_eq(t2, t)
            assert tm.alpha_eq(t, t3)
            # congruence for application, abstraction, fix
            u = gen_term(rng, IOTA, {}, 1)
            if ty == fn_type(IOTA, IOTA):
                assert tm.alpha_eq(App(t, u), App(t2, u))
                assert tm.alpha_eq(Fix(t), Fix(t2))
            assert tm.alpha_eq(Lam("q", t), Lam("q", t2))
            # oracle agreement, both on variants and on unrelated terms
            assert alpha_eq_oracle(t, t2)
            if i % 4 == 0:
                other = gen_term(rng, ty, {}, rng.randint(0, 3))
                assert tm.alpha_eq(t, other) == alpha_eq_oracle(t, other)


class TestBetaIdempotence:
    def test_idempotent(self):
        rng = random.Random(105)
        for _ in range(CASES["beta_idempotence"]):
            ty = rng.choice([IOTA, fn_type(IOTA, IOTA)])
            t = gen_term(rng, ty, {}, rng.randint(0, 4))
            nf = tm.beta_normalize(t)
            assert tm.beta_normalize(nf) == nf


class TestUltrametric:
    def test_axioms(self):
        rng = random.Random(106)
        for _ in range(CASES["ultrametric"]):
            x = gen_tree(rng, rng.randint(0, 4))
            y = gen_tree(rng, rng.randint(0, 4))
            z = gen_tree(rng, rng.randint(0, 4))
            dxy, dyz, dxz = tr.distance(x, y), tr.distance(y, z), tr.distance(x, z)
            assert dxy == tr.distance(y, x)
            assert (dxy == 0) == (x == y)
            assert dxz <= max(dxy, dyz)
            assert 0 <= dxz < 1


class TestTMonotonicity:
    def test_monotone(self):
        rng = random.Random(107)
        cfg = tr.InstanceConfig()
        done = 0
        while done < CASES["t_monotonicity"]:
            text, preds, _clauses = random_propositional_program(rng, rng.randint(1, 4), rng.randint(1, 6))
            prog = ps.parse_program(text)
            atoms = [tr.leaf(p) for p in preds]
            for _ in range(4):
                small = frozenset(a for a in atoms if rng.random() < 0.4)
                large = small | frozenset(a for a in atoms if rng.random() < 0.4)
                ti = tr.t_operator(prog, tr.Interpretation(1, small), cfg)
                tj = tr.t_operator(prog, tr.Interpretation(1, large), cfg)
                assert ti.atoms <= tj.atoms
                done += 1


def _random_goal_text(rng, preds, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(preds + ["true"])
    op = rng.choice(["/\\", "\\/", "=>"])
    if op == "=>":
        # the antecedent of an implicative goal must be a program clause
        return f"{rng.choice(preds)} {op} ({_random_goal_text(rng, preds, depth - 1)})"
    return f"({_random_goal_text(rng, preds, depth - 1)}) {op} ({_random_goal_text(rng, preds, depth - 1)})"


class TestCheckerSearcherAgreement:
    def test_found_proofs_check(self):
        rng = random.Random(108)
        done = 0
        proved = 0
        while done < CASES["checker_searcher_agreement"]:
            text, preds, _clauses = random_propositional_program(rng, rng.randint(1, 4), rng.randint(1, 5))
            prog = ps.parse_program(text)
            goal = ps.parse_goal(_random_goal_text(rng, preds, rng.randint(0, 2)), prog)
            cfg = eng.SearchConfig(calculus=Calculus.FOHH, depth_limit=8)
            res = eng.prove(prog, None, goal, cfg)
            if res.proved:
                ok, diag = eng.check(res.tree, prog, Calculus.FOHH)
                assert ok, (text, diag)
                proved += 1
            done += 1
        assert proved > CASES["checker_searcher_agreement"] // 4

    def test_regression_agreement(self, regression_proofs):
        for name, (prog, _g, calc, res) in regression_proofs.items():
            ok, diag = eng.check(res.tree, prog, calc)
            assert ok, (name, diag)


class TestFragmentMonotonicity:
    def test_upward_checking(self):
        rng = random.Random(109)
        upward = [Calculus.FOHH, Calculus.HOHC, Calculus.HOHH]
        done = 0
        while done < CASES["fragment_monotonicity"]:
            text, preds, _clauses = random_propositional_program(rng, rng.randint(1, 3), rng.randint(1, 4))
            prog = ps.parse_program(text)
            goal = ps.parse_goal(rng.choice(preds), prog)
            res = eng.prove(prog, None, goal, eng.SearchConfig(calculus=Calculus.FOHC, depth_limit=8))
            if not res.proved:
                continue
            for calc in upward:
                ok, diag = eng.check(res.tree, prog, calc)
                assert ok, (text, calc, diag)
                done += 1
