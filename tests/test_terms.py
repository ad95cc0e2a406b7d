import pickle
from copy import copy as shallow_copy

import pytest

from cup import engine as eng
from cup import formulas as fm
from cup import guardedness as gd
from cup import parser as ps
from cup import soundness as sd
from cup import terms as tm
from cup import trees as tr
from cup.errors import (
    FixBodyNotAbstraction,
    NoFixRedex,
    NonFirstOrderSignature,
    TypeMismatch,
    UnboundConstant,
    UnboundVariable,
)
from cup.terms import (
    Arrow,
    Con,
    EQUAL,
    App,
    Fix,
    IOTA,
    NOT_EQUAL,
    O,
    Signature,
)

from helpers import A, C, FR_STR, L, N_STR, STREAM_SIG, V, Z_STR, alpha_eq_oracle, fn_type, scons, tree_height


class TestTypeOrder:
    def test_base(self):
        assert tm.type_order(IOTA) == 0

    def test_first_order_constructor(self):
        assert tm.type_order(fn_type(IOTA, IOTA, IOTA)) == 1

    def test_second_order(self):
        # hand evaluation: max(ord(i->i)+1, ord(i)) = max(2, 0)
        assert tm.type_order(Arrow(Arrow(IOTA, IOTA), IOTA)) == 2


class TestTypecheck:
    def test_zero_stream(self):
        assert tm.typecheck(STREAM_SIG, {}, Z_STR) == IOTA

    def test_var_rule(self):
        assert tm.typecheck(STREAM_SIG, {"x": IOTA}, V("x")) == IOTA

    def test_successive_stream(self):
        assert tm.typecheck(STREAM_SIG, {}, FR_STR) == fn_type(IOTA, IOTA)

    def test_unbound_constant(self):
        with pytest.raises(UnboundConstant):
            tm.typecheck(STREAM_SIG, {}, C("zilch"))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            tm.typecheck(STREAM_SIG, {}, V("y"))

    def test_application_mismatch(self):
        with pytest.raises(TypeMismatch):
            tm.typecheck(STREAM_SIG, {}, A(C("0"), C("0")))

    def test_fix_body_not_abstraction(self):
        with pytest.raises(FixBodyNotAbstraction):
            tm.typecheck(STREAM_SIG, {}, Fix(C("0")))


class TestFreeVarsSubterms:
    def test_abstraction_removes_binder(self):
        assert tm.free_vars(L("x", A(C("scons"), V("x"), V("y")))) == {"y"}

    def test_guarded_fix_closed(self):
        assert tm.free_vars(FR_STR) == set()

    def test_subterms_enumeration(self):
        t = scons(C("0"), C("nil"))
        subs = tm.subterms(t)
        assert {C("0"), C("nil"), C("scons"), A(C("scons"), C("0")), t} <= subs


class TestSubstitute:
    def test_clause_instantiation(self):
        t = A(C("member"), V("x"), scons(V("x"), V("y")))
        out = tm.substitute(t, [("x", C("0")), ("y", C("nil"))])
        assert out == A(C("member"), C("0"), scons(C("0"), C("nil")))

    def test_variable_base_case(self):
        assert tm.substitute(V("x"), [("x", C("0"))]) == C("0")

    def test_capture_avoidance(self):
        # (\y. x y)[x := y] must rename the binder
        t = L("y", A(V("x"), V("y")))
        out = tm.subst1(t, "x", V("y"))
        assert tm.alpha_eq(out, L("z", A(V("y"), V("z"))))
        assert alpha_eq_oracle(out, L("z", A(V("y"), V("z"))))


class TestAlphaEq:
    def test_identity_abstraction(self):
        assert tm.alpha_eq(L("x", V("x")), L("y", V("y")))

    def test_different_binding_structure(self):
        t1 = L("x", L("y", V("x")))
        t2 = L("y", L("x", V("x")))
        assert not tm.alpha_eq(t1, t2)
        assert not alpha_eq_oracle(t1, t2)

    def test_fix_binders(self):
        other = Fix(L("y", A(C("scons"), C("0"), V("y"))))
        assert tm.alpha_eq(Z_STR, other)
        assert alpha_eq_oracle(Z_STR, other)


class TestBetaNormalize:
    def test_single_redex(self):
        t = A(L("x", scons(V("x"), C("nil"))), C("0"))
        assert tm.beta_normalize(t) == scons(C("0"), C("nil"))

    def test_fix_is_opaque(self):
        t = A(FR_STR, C("0"))
        assert tm.beta_normalize(t) == t

    def test_two_step(self):
        t = A(L("x", L("y", A(C("member"), V("x"), V("y")))), C("0"), C("nil"))
        assert tm.beta_normalize(t) == A(C("member"), C("0"), C("nil"))


class TestFixbetaUnfold:
    def test_zero_stream(self):
        assert tm.fixbeta_unfold(Z_STR) == scons(C("0"), Z_STR)

    def test_constant_stream(self):
        out = tm.fixbeta_unfold(A(N_STR, V("x")))
        assert out == scons(V("x"), A(N_STR, V("x")))

    def test_successive_stream(self):
        out = tm.fixbeta_unfold(A(FR_STR, V("n")))
        assert out == scons(V("n"), A(FR_STR, A(C("s"), V("n"))))

    def test_no_redex(self):
        with pytest.raises(NoFixRedex):
            tm.fixbeta_unfold(scons(C("0"), C("nil")))


class TestFixbetaEquiv:
    def test_from_pair(self):
        z = C("Z")
        t1 = A(C("from"), z, scons(z, A(FR_STR, A(C("s"), z))))
        t2 = A(C("from"), z, A(FR_STR, z))
        assert tm.fixbeta_equiv(t1, t2, 8) == EQUAL

    def test_bitstream_pair(self):
        t1 = A(C("bitstream"), A(N_STR, C("0")))
        t2 = A(C("bitstream"), scons(C("0"), A(N_STR, C("0"))))
        assert tm.fixbeta_equiv(t1, t2, 8) == EQUAL

    def test_distinct_constants(self):
        assert tm.fixbeta_equiv(A(C("bit"), C("0")), A(C("bit"), C("1")), 8) == NOT_EQUAL

    def test_unknown_on_distinct_streams(self):
        # zeros vs the zero-headed constant stream differ only past any
        # bound-8 unfolding window when both sides keep growing in step
        ones = Fix(L("x", scons(C("1"), V("x"))))
        assert tm.fixbeta_equiv(Z_STR, ones, 4) == NOT_EQUAL

    def test_reflexive(self):
        for t in (Z_STR, A(N_STR, C("0")), scons(C("0"), C("nil"))):
            assert tm.fixbeta_equiv(t, t, 2) == EQUAL


class TestClash:
    def test_rigid_heads(self):
        assert tm.clash(A(C("eq"), C("0"), V("x")), A(C("eq"), C("0"), V("y")))
        assert not tm.clash(A(C("eq"), C("0"), V("?x")), A(C("eq"), C("0"), C("1")))
        assert not tm.clash(A(C("eq"), Z_STR, C("1")), A(C("eq"), C("0"), C("1")))

    def test_a_metavariable_meets_its_counterparts(self):
        eq_xx = A(C("eq"), V("?x"), V("?x"))
        assert tm.clash(eq_xx, A(C("eq"), C("0"), C("1")))
        assert tm.clash(A(C("eq"), C("0"), C("1")), eq_xx)
        assert not tm.clash(eq_xx, A(C("eq"), C("0"), C("0")))
        # on both sides: ?x is 1 in the first place and 0 in the second
        assert tm.clash(A(C("eq"), V("?x"), C("0")), A(C("eq"), C("1"), V("?x")))

    def test_counterparts_compare_with_undetermined_positions(self):
        # a metavariable or a fix in a counterpart clashes with nothing
        eq_xx = A(C("eq"), V("?x"), V("?x"))
        assert not tm.clash(eq_xx, A(C("eq"), scons(C("0"), V("?y")), scons(V("?z"), C("1"))))
        assert not tm.clash(eq_xx, A(C("eq"), Z_STR, scons(C("1"), C("nil"))))
        assert tm.clash(eq_xx, A(C("eq"), scons(C("0"), Z_STR), scons(C("1"), Z_STR)))

    def test_nothing_is_bound_under_an_abstraction(self):
        # the counterparts there may mention the bound variable
        eq_xx = L("y", A(C("eq"), V("?x"), V("?x")))
        assert not tm.clash(eq_xx, L("y", A(C("eq"), C("0"), C("1"))))


class TestFirstOrder:
    def test_ground_constructor_term(self):
        assert tm.is_first_order(STREAM_SIG, {}, scons(C("0"), C("nil")))

    def test_fix_violates_condition_five(self):
        assert not tm.first_order(STREAM_SIG, {}, Z_STR)

    def test_functional_type_violates_condition_one(self):
        assert not tm.first_order(STREAM_SIG, {}, L("x", A(C("scons"), C("0"), V("x"))))

    def test_atom_is_not_a_first_order_term(self):
        # atoms have type o, which condition four forbids in subterm types
        assert not tm.first_order(STREAM_SIG, {}, A(C("bit"), C("0")))

    def test_first_order_atom(self):
        assert tm.is_first_order_atom(STREAM_SIG, {}, A(C("bit"), C("0")))
        assert not tm.is_first_order_atom(STREAM_SIG, {}, A(C("bitstream"), Z_STR))


class TestSignature:
    def test_stream_signature_is_first_order(self):
        STREAM_SIG.check_first_order()

    def test_second_order_constant_rejected(self):
        sig = Signature.of({"twice": Arrow(Arrow(IOTA, IOTA), IOTA)})
        with pytest.raises(NonFirstOrderSignature):
            sig.check_first_order()

    def test_o_in_argument_position_rejected(self):
        sig = Signature.of({"holds": fn_type(O, O)})
        with pytest.raises(NonFirstOrderSignature):
            sig.check_first_order()


class TestSnapshotGrowth:
    def test_unfolding_grows_the_determined_skeleton(self):
        # iterate the single-step unfolding; the snapshot's tree height
        # must grow strictly (the computational content of productivity)
        from cup.guardedness import snapshot
        from cup.trees import term_to_tree

        sig = STREAM_SIG
        for base in (
            A(C("bitstream"), Z_STR),
            A(C("bitstream"), A(N_STR, C("0"))),
            A(C("from"), C("0"), A(FR_STR, C("0"))),
        ):
            t = base
            last_height = -1
            for _ in range(8):
                tree = term_to_tree(sig, snapshot(sig, t))
                assert tree_height(tree) > last_height
                last_height = tree_height(tree)
                t = tm.fixbeta_unfold(t)


# ---------------------------------------------------------------------------
# The value contract: frozen, slotted, equality, repr and hash as before
# ---------------------------------------------------------------------------

_ENTRY = eng.Entry(fm.Atom(C("p")), eng.Src.LEMMA)
_SEQ = eng.Sequent(Signature(), (_ENTRY,), None, fm.TOP)

_STREAM = tr.Tree("a", (tr.Tree("b"),))
_INTERP = tr.Interpretation(2, frozenset({tr.Tree("b")}))

# (value, its repr, the tuple whose hash is its hash); one per frozen record
VALUES = [
    (IOTA, "i", ("i",)),
    (Arrow(IOTA, O), "i -> o", (IOTA, O)),
    (tm._TMeta(3), "_TMeta(ident=3)", (3,)),
    (V("x"), "Var(name='x')", ("x",)),
    (C("s"), "Con(name='s')", ("s",)),
    (A(C("s"), V("x")), "App(fn=Con(name='s'), arg=Var(name='x'))", (C("s"), V("x"))),
    (L("x", V("x")), "Lam(var='x', body=Var(name='x'))", ("x", V("x"))),
    (Fix(L("x", V("x"))), "Fix(body=Lam(var='x', body=Var(name='x')))", (L("x", V("x")),)),
    (fm.Atom(C("p")), "Atom(term=Con(name='p'))", (C("p"),)),
    (fm.TOP, "Top()", ()),
    (fm.Conj(fm.TOP, fm.TOP), "Conj(left=Top(), right=Top())", (fm.TOP, fm.TOP)),
    (fm.Disj(fm.TOP, fm.TOP), "Disj(left=Top(), right=Top())", (fm.TOP, fm.TOP)),
    (fm.Impl(fm.TOP, fm.TOP), "Impl(left=Top(), right=Top())", (fm.TOP, fm.TOP)),
    (fm.Forall("x", IOTA, fm.TOP), "Forall(var='x', ty=i, body=Top())", ("x", IOTA, fm.TOP)),
    (fm.Exists("x", IOTA, fm.TOP), "Exists(var='x', ty=i, body=Top())", ("x", IOTA, fm.TOP)),
    (_ENTRY, "Entry(formula=Atom(term=Con(name='p')), src=<Src.LEMMA: 'lemma'>)", (fm.Atom(C("p")), eng.Src.LEMMA)),
    (_SEQ, "Sequent(signature=Signature(constants=()), entries=(" + repr(_ENTRY) + ",), focus=None, goal=Top(), "
     "mode='plain', guarded=False)", (Signature(), (_ENTRY,), None, fm.TOP, eng.PLAIN, False)),
    (eng.ProofTree(_SEQ, "top-r"), f"ProofTree(sequent={_SEQ!r}, rule='top-r', witness=None, eigen=None, children=())",
     (_SEQ, "top-r", None, None, ())),
    (ps.Token("ident", "x", 1, 2), "Token(kind='ident', text='x', line=1, col=2)", ("ident", "x", 1, 2)),
    (Signature((("c", IOTA),)), "Signature(constants=(('c', i),))", ((("c", IOTA),),)),
    (fm.HClause(("X",), (V("X"),), C("p")), "HClause(universals=('X',), body=(Var(name='X'),), head=Con(name='p'))",
     (("X",), (V("X"),), C("p"))),
    (fm.Program(Signature()), "Program(signature=Signature(constants=()), clauses=(), fix_definitions=())",
     (Signature(), (), ())),
    (eng.SearchConfig(fm.Calculus.FOHC),
     "SearchConfig(calculus=<Calculus.FOHC: 'co-fohc'>, depth_limit=32, fixbeta_bound=8)",
     (fm.Calculus.FOHC, 32, 8)),
    (eng.LemmaStore(), "LemmaStore(entries=())", ((),)),
    (gd.GuardReport(((1, "x"),)), "GuardReport(violations=((1, 'x'),))", (((1, "x"),),)),
    (sd.DeltaRecord((("x", C("0")),)), "DeltaRecord(bindings=(('x', Con(name='0')),))", ((("x", C("0")),),)),
    (_STREAM, "a(b)", ("a", (tr.Tree("b"),))),
    (_INTERP, "Interpretation(depth=2, atoms=frozenset({b}))", (2, frozenset({tr.Tree("b")}))),
    (tr.InstanceConfig(), "InstanceConfig(term_size=3, seed_atoms=())", (3, ())),
]

_SUPPLY = tm.NameSupply()
_UNIVERSE = tr._Universe([C("0")], [])
_PROGRAM = fm.Program(Signature())

# (mutable record, its repr)
RECORDS = [
    (eng.SearchStats(3, 2), "SearchStats(nodes=3, max_depth=2)"),
    (eng.SearchOutcome(None, "no-proof", eng.SearchStats()),
     "SearchOutcome(tree=None, reason='no-proof', stats=SearchStats(nodes=0, max_depth=0))"),
    (eng._Ctx(eng.SearchConfig(fm.Calculus.FOHC), _SUPPLY, eng.SearchStats()),
     f"_Ctx(cfg={eng.SearchConfig(fm.Calculus.FOHC)!r}, supply={_SUPPLY!r}, "
     "stats=SearchStats(nodes=0, max_depth=0), need=inf)"),
    (sd.Candidate(_INTERP, (C("p"),), []),
     f"Candidate(interpretation={_INTERP!r}, side_atoms=(Con(name='p'),), deltas=[], eigenvariables=())"),
    (sd.HarnessReport(1, [], 2, 0, True, None, 3, 4),
     "HarnessReport(uses=1, deltas=[], depth=2, word_budget=0, verified=True, counterexample=None, "
     "candidate_size=3, merged_size=4, eigenvariables=())"),
    (sd.ExtensionReport(True, frozenset(), frozenset(), 3),
     "ExtensionReport(equal=True, only_in_original=frozenset(), only_in_extended=frozenset(), depth=3)"),
    (_UNIVERSE, "_Universe(pool=[Con(name='0')], renamed=[], explored={})"),
    (tr.Grounding(_PROGRAM, 3, 2, _UNIVERSE),
     f"Grounding(program={_PROGRAM!r}, term_size=3, depth=2, uni={_UNIVERSE!r})"),
    (tr._Explored(), "_Explored(reps={}, derived_count={}, expansions={})"),
]

def _assert_pinned(value, text, parts):
    assert repr(value) == text
    copy = tm.replace(value)
    assert copy == value and copy is not value
    assert pickle.loads(pickle.dumps(value)) == value == shallow_copy(value)
    assert value != fm.Atom(C("other")) and value != parts
    # the hash of the fields, so no set order moves
    assert hash(value) == hash(parts) == hash(copy)


def _assert_frozen(value, text):
    """Every write or deletion of a field raises the builder's error and
    leaves the value as it was."""
    for name in type(value)._fields:
        before = getattr(value, name)
        with pytest.raises(tm.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, object())
        with pytest.raises(tm.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        assert getattr(value, name) is before
    assert repr(value) == text and issubclass(tm.FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("value, text, parts", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES])
class TestValueContract:
    def test_repr_equality_and_hash_are_pinned(self, value, text, parts):
        _assert_pinned(value, text, parts)

    def test_every_field_is_frozen_and_there_is_no_instance_dict(self, value, text, parts):
        _assert_frozen(value, text)
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_a_mutable_record_pins_its_repr_and_equality_and_is_unhashable(record, text):
    assert repr(record) == text
    copy = tm.replace(record)
    assert copy == record and copy is not record and record != fm.TOP
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError, match="unhashable type"):
        hash(record)


def test_each_default_factory_field_is_a_fresh_object_per_instance():
    makers = [lambda: fm.Program(Signature()), lambda: tr.Interpretation(1, frozenset()),
              lambda: tr._Universe([], []), lambda: tr.Grounding(_PROGRAM, 3, 1, _UNIVERSE), tr._Explored]
    for make in makers:
        a, b = make(), make()
        made = [n for n, f in type(a)._fields.items() if f.factory]
        assert made, type(a)
        for name in made:
            assert getattr(a, name) == type(a)._fields[name].factory()
            assert getattr(a, name) is not getattr(b, name), (type(a), name)
    # a field __init__ does not take cannot be replaced either
    with pytest.raises(TypeError):
        tm.replace(fm.Program(Signature()), _universes={})


def test_term_hashes_are_pinned():
    f, a = C("f"), A(C("s"), V("n"))
    assert hash(A(f, a)) == hash((f, a))
    assert hash(V("n")) == hash(("n",))
    assert hash(L("n", a)) == hash(("n", a)) and hash(Fix(L("n", a))) == hash((L("n", a),))


def test_alpha_keys_are_filled_on_first_request():
    t = L("x", A(C("s"), V("x")))
    assert t._ak is None and t.body._ak is None
    key = tm.alpha_key(t)
    assert t._ak == key == "l@c1:sb1;"
    f = fm.Forall("x", IOTA, fm.Atom(A(C("p"), V("x"))))
    assert f._ak is None
    assert fm.formula_key(f) == f._ak is not None


def test_resolve_returns_a_type_with_nothing_to_resolve_itself():
    inf = tm._Infer(STREAM_SIG, {})
    ty = fn_type(IOTA, fn_type(IOTA, IOTA), IOTA)
    assert inf.resolve(ty) is ty
    m = inf.meta()
    inf.sol[m.ident] = IOTA
    partly = Arrow(fn_type(IOTA, IOTA), m)
    got = inf.resolve(partly)
    assert got == fn_type(fn_type(IOTA, IOTA), IOTA) and got.arg is partly.arg
