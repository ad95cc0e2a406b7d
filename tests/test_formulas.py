import pytest

from cup import formulas as fm
from cup import terms as tm
from cup.errors import NonHConvertibleClause
from cup.formulas import (
    ALL_CALCULI,
    Atom,
    Calculus,
    Conj,
    Disj,
    Exists,
    Forall,
    HClause,
    Impl,
    Top,
    classify,
    conjoin,
    to_h_clauses,
)
from cup.terms import IOTA

from helpers import A, C, FR_STR, N_STR, STREAM_SIG, V, fn_type, scons, slist

FO = Calculus.FOHC
FH = Calculus.FOHH
HO = Calculus.HOHC
HH = Calculus.HOHH

# the extension arrows of the calculus diamond
ARROWS = {FO: {FH, HO, HH}, FH: {HH}, HO: {HH}, HH: set()}


def atom(*parts):
    return Atom(A(*parts))


class TestClassify:
    def test_existential_member_goal_everywhere(self):
        g = Exists(
            "x",
            IOTA,
            Conj(
                atom(C("member"), C("0"), slist(C("0"), C("1"), V("x"))),
                atom(C("member"), C("1"), slist(C("0"), C("1"), V("x"))),
            ),
        )
        assert classify(STREAM_SIG, g, "goal") == ALL_CALCULI

    def test_universal_goal_needs_hereditary_harrop(self):
        g = Forall("x", IOTA, atom(C("member"), C("0"), slist(C("0"), C("1"), V("x"))))
        assert classify(STREAM_SIG, g, "goal") == {FH, HH}

    def test_implicative_goal_needs_hereditary_harrop(self):
        base = slist(C("0"), C("1"), V("x"))
        g = Forall("x", IOTA, Impl(atom(C("member"), C("0"), base), atom(C("member"), C("1"), base)))
        assert classify(STREAM_SIG, g, "goal") == {FH, HH}

    def test_from_core_formula_is_hohh_only(self):
        g = Forall("x", IOTA, atom(C("from"), V("x"), A(FR_STR, V("x"))))
        assert classify(STREAM_SIG, g, "core") == {HH}

    def test_stream_atom_is_higher_order(self):
        g = atom(C("bitstream"), scons(C("0"), A(N_STR, C("0"))))
        assert classify(STREAM_SIG, g, "goal") == {HO, HH}
        assert classify(STREAM_SIG, g, "core") == {HO, HH}

    def test_clause_grammar_shared_shape(self):
        d = Forall(
            "x",
            IOTA,
            Forall(
                "y",
                IOTA,
                Impl(atom(C("member"), V("x"), V("y")), atom(C("member"), V("x"), scons(V("y"), V("y")))),
            ),
        )
        assert classify(STREAM_SIG, d, "clause") == ALL_CALCULI

    def test_disjunctive_goal_not_core(self):
        g = Disj(atom(C("bit"), C("0")), atom(C("bit"), C("1")))
        assert classify(STREAM_SIG, g, "goal") == ALL_CALCULI
        assert classify(STREAM_SIG, g, "core") == frozenset()

    def test_flexible_atom_goal_higher_order_only(self):
        g = Exists("x", fn_type(IOTA, tm.O), Atom(A(V("x"), C("0"))))
        assert classify(STREAM_SIG, g, "goal") == {HO, HH}
        # clauses and core formulae need rigid atoms in every calculus
        d = Forall("x", fn_type(IOTA, tm.O), Atom(A(V("x"), C("0"))))
        assert classify(STREAM_SIG, d, "clause") == set()
        assert classify(STREAM_SIG, d, "core") == set()

    def test_ill_typed_rejected(self):
        with pytest.raises(fm.IllTyped):
            classify(STREAM_SIG, atom(C("bit"), C("0"), C("0")), "goal")


def _formula_corpus():
    """Small closed formulae mixing first-order and stream atoms."""
    p0 = atom(C("bit"), C("0"))
    ph = atom(C("bitstream"), A(N_STR, C("0")))
    up = Forall("x", IOTA, atom(C("bit"), V("x")))
    out = [p0, ph, Top(), up]
    out += [Conj(p0, ph), Disj(p0, p0), Impl(p0, ph), Impl(ph, p0)]
    out += [Exists("x", IOTA, atom(C("eq"), V("x"), V("x"))), Forall("x", IOTA, Impl(p0, atom(C("bit"), V("x"))))]
    out += [Conj(up, p0), Impl(up, p0), Disj(ph, up)]
    return out


class TestDiamondMonotonicity:
    def test_arrows_preserved_on_corpus(self):
        for f in _formula_corpus():
            for role in ("clause", "goal", "core"):
                members = classify(STREAM_SIG, f, role)
                for c in members:
                    assert ARROWS[c] <= members or not ARROWS[c] - members, (
                        f,
                        role,
                        members,
                    )
                for c in members:
                    for up in ARROWS[c]:
                        assert up in members


class TestCoreIsIntersection:
    def _enumerate(self, depth):
        p0 = atom(C("bit"), C("0"))
        ph = atom(C("bitstream"), A(N_STR, C("0")))
        px = atom(C("bit"), V("x"))
        layer = [p0, ph, Top()]
        for _ in range(depth):
            new = []
            for f in layer[:20]:
                for g in layer[:20]:
                    new += [Conj(f, g), Disj(f, g), Impl(f, g)]
            for f in layer[:20]:
                new.append(Forall("x", IOTA, f))
                new.append(Exists("x", IOTA, f))
            new.append(Forall("x", IOTA, px))
            layer = layer + new
        return layer[:400]

    def test_core_equals_clause_and_goal(self):
        for f in self._enumerate(2):
            core = classify(STREAM_SIG, f, "core")
            both = classify(STREAM_SIG, f, "clause") & classify(STREAM_SIG, f, "goal")
            assert core == both, f


class TestToHClauses:
    def test_single_body_clause(self):
        d = Forall(
            "x", IOTA,
            Forall(
                "y", IOTA,
                Forall(
                    "t", IOTA,
                    Impl(atom(C("member"), V("x"), V("t")), atom(C("member"), V("x"), scons(V("y"), V("t")))),
                ),
            ),
        )
        hs = to_h_clauses(d)
        assert len(hs) == 1
        assert hs[0].universals == ("x", "y", "t")
        assert hs[0].body == (A(C("member"), V("x"), V("t")),)
        assert hs[0].head == A(C("member"), V("x"), scons(V("y"), V("t")))

    def test_fact(self):
        hs = to_h_clauses(atom(C("bit"), C("0")))
        assert hs == [HClause((), (), A(C("bit"), C("0")))]

    def test_conjunctive_consequent_splits(self):
        g = atom(C("bit"), V("x"))
        d = Forall("x", IOTA, Impl(g, Conj(atom(C("bit"), V("x")), atom(C("eq"), V("x"), V("x")))))
        hs = to_h_clauses(d)
        assert len(hs) == 2
        # truth-table equivalence over a two-atom instance:
        # G => (D1 /\ D2)  iff  (G => D1) and (G => D2)
        for gval in (False, True):
            for d1 in (False, True):
                for d2 in (False, True):
                    lhs = (not gval) or (d1 and d2)
                    rhs = ((not gval) or d1) and ((not gval) or d2)
                    assert lhs == rhs

    def test_nested_implications_fuse(self):
        d = Impl(atom(C("bit"), C("0")), Impl(atom(C("bit"), C("1")), atom(C("eq"), C("0"), C("0"))))
        hs = to_h_clauses(d)
        assert len(hs) == 1
        assert set(hs[0].body) == {A(C("bit"), C("0")), A(C("bit"), C("1"))}

    def test_a_universal_an_outer_binder_took_is_renamed(self):
        d = Forall("x", IOTA, Impl(atom(C("p"), V("x")), Forall("x", IOTA, atom(C("q"), V("x"), V("x")))))
        assert to_h_clauses(d) == [HClause(("x", "x#1"), (A(C("p"), V("x")),), A(C("q"), V("x#1"), V("x#1")))]

    def test_disjunctive_body_rejected(self):
        d = Impl(Disj(atom(C("bit"), C("0")), atom(C("bit"), C("1"))), atom(C("eq"), C("0"), C("0")))
        with pytest.raises(NonHConvertibleClause):
            to_h_clauses(d)

    def test_round_trip_preserves_clause_classification(self):
        corpus = [
            Forall("x", IOTA, Impl(atom(C("bit"), V("x")), atom(C("eq"), V("x"), V("x")))),
            Conj(atom(C("bit"), C("0")), atom(C("bit"), C("1"))),
            Forall("x", IOTA, Conj(atom(C("bit"), V("x")), atom(C("eq"), V("x"), V("x")))),
        ]
        for d in corpus:
            hs = to_h_clauses(d)
            back = conjoin([h.to_formula() for h in hs])
            assert classify(STREAM_SIG, d, "clause") == classify(STREAM_SIG, back, "clause")


def _parts(f):
    yield f
    if isinstance(f, (Conj, Disj, Impl)):
        yield from _parts(f.left)
        yield from _parts(f.right)
    elif isinstance(f, (Forall, Exists)):
        yield from _parts(f.body)


def test_substitution_returns_each_part_the_variable_is_not_free_in_itself(
    member_program, bitstream_program, from_program, comember_program, fibs_program
):
    kept = 0
    for program in (member_program, bitstream_program, from_program, comember_program, fibs_program):
        for clause in program.clauses:
            # a closed clause, and a variable bound in it
            assert fm.formula_substitute(clause, "x", C("0")) is clause
            f = clause
            while isinstance(f, Forall):
                assert fm.formula_substitute(f, f.var, C("0")) is f
                out = fm.formula_substitute(f.body, f.var, C("0"))
                assert out == fm.formula_substitute(_rebuilt(f.body), f.var, C("0"))
                # the value is closed, so no binder is renamed and the
                # parts line up
                for part, new in zip(_parts(f.body), _parts(out)):
                    if f.var not in fm.formula_free_vars(part):
                        assert new is part
                        kept += 1
                    else:
                        assert new is not part
                f = f.body
    assert kept > 8


def _rebuilt(f):
    """f built again from its fields, so nothing in it is shared with f."""
    if isinstance(f, Atom):
        return Atom(f.term)
    if isinstance(f, Top):
        return Top()
    if isinstance(f, (Conj, Disj, Impl)):
        return type(f)(_rebuilt(f.left), _rebuilt(f.right))
    return type(f)(f.var, f.ty, _rebuilt(f.body))
