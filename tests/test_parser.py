import array
import json
import random
import re
import sys

import pytest

from cup import engine as eng
from cup import formulas as fm
from cup import parser as ps
from cup import terms as tm
from cup.errors import (
    CupError,
    GuardednessError,
    MalformedDocument,
    NestingTooDeep,
    ParseError,
    SignatureMismatch,
    SourceTypeError,
    TypeMismatch,
)
from cup.formulas import Atom, Calculus, Exists, Forall

from helpers import PUNCT, A, C, L, V, deep_document, fn_type, scons, stated_document, tokenize_reference


class TestParseProgram:
    def test_declarations_and_clauses(self):
        prog = ps.parse_program(
            "const 0 : i. const scons : i -> i -> i. const bit : i -> o.\n"
            "def z_str = fix \\x. scons 0 x.\n"
            "bit 0."
        )
        assert len(prog.clauses) == 1
        assert [n for n, _ in prog.fix_definitions] == ["z_str"]
        assert prog.clauses[0] == Atom(A(C("bit"), C("0")))
        assert tm.alpha_eq(prog.fix_def("z_str"), tm.Fix(tm.Lam("x", scons(C("0"), V("x")))))

    def test_explicit_universal_clause(self):
        prog = ps.parse_program(
            "const 0 : i. const cons : i -> i -> i. const member : i -> i -> o.\n"
            "forall x y t. member x t => member x (cons y t)."
        )
        c = prog.clauses[0]
        assert isinstance(c, Forall) and isinstance(c.body, Forall)

    def test_empty_program(self):
        prog = ps.parse_program("")
        assert prog.clauses == () and prog.signature.constants == ()

    def test_prolog_sugar_equals_explicit(self):
        base = "const 0 : i. const scons : i -> i -> i. const member : i -> i -> o.\n"
        sugar = ps.parse_program(base + "member X [Y|T] :- member X T.")
        explicit = ps.parse_program(base + "forall X Y T. member X T => member X [Y|T].")
        assert fm.formula_alpha_eq(sugar.clauses[0], explicit.clauses[0])

    def test_syntax_error_has_span(self):
        with pytest.raises(ParseError) as exc:
            ps.parse_program("const 0 : i. bit ((")
        assert exc.value.span is not None

    def test_type_error_reported(self):
        with pytest.raises(SourceTypeError):
            ps.parse_program("const p : o. const q : o.\np q.")
        # a clause is type-checked before it is beta-normalised, which
        # would not terminate here
        with pytest.raises(SourceTypeError) as exc:
            ps.parse_program("const p : i -> o.\np ((\\x. x x) (\\x. x x)).")
        assert exc.value.span is not None

    def test_guardedness_error(self):
        with pytest.raises(GuardednessError):
            ps.parse_program("const 0 : i.\ndef bad = fix \\x. x.")

    def test_non_first_order_signature(self):
        with pytest.raises(SourceTypeError):
            ps.parse_program("const apply : (i -> i) -> i.")

    def test_reserved_marker_rejected(self):
        with pytest.raises(ParseError):
            ps.parse_program("const x#1 : i.")

    def test_sugar_head_may_hold_a_lambda(self):
        # a binder's own dot does not close the clause, so `:-` after it
        # still makes the clause Prolog sugar
        base = "const c : i. const p : i -> o. const q : i -> o.\n"
        sugar = ps.parse_program(base + "p ((\\y. y) X) :- q X.")
        explicit = ps.parse_program(base + "forall X. q X => p X.")
        assert fm.formula_alpha_eq(sugar.clauses[0], explicit.clauses[0])
        fact = ps.parse_program(base + "p ((\\y. y) c).")
        assert fact.clauses[0] == Atom(A(C("p"), C("c")))

    @pytest.mark.parametrize("head, atom", [("(p) X", "p X"), ("((p)) X", "p X"), ("(r c) [X|c]", "r c [X|c]")])
    def test_sugar_head_may_start_with_a_parenthesised_function(self, head, atom):
        # read as a formula the head stops after its parentheses, as a term
        # it reaches the `:-`
        base = "const c : i. const scons : i -> i -> i. const p : i -> o. const q : i -> o. const r : i -> i -> o.\n"
        sugar = ps.parse_program(base + head + " :- q X.")
        explicit = ps.parse_program(base + f"forall X. q X => {atom}.")
        assert fm.formula_alpha_eq(sugar.clauses[0], explicit.clauses[0])
        # a lambda at the head's head parses, then is outside the clause grammar
        with pytest.raises(SourceTypeError, match="^clause is outside the first-order clause grammar$"):
            ps.parse_program(base + "(\\y. p y) X :- q X.")

    @pytest.mark.parametrize("text, message", [
        # a formula followed by neither `.` nor a sugar neck: the formula's error
        ("(p) X.", "expected '.', found 'X'"),
        ("(p) X /\\ q X :- q c.", "expected '.', found 'X'"),
        ("(p) y :- q c.", "unknown identifier 'y'"),
        ("(p /\\ q c) X :- q X.", "expected '.', found 'X'"),
        # at the formula's `:-` the head's error, as when it is read as a term
        ("(p) => q c :- q c.", "expected ':-', found '=>'"),
    ])
    def test_a_parenthesised_head_without_a_neck_reports_the_formula_error(self, text, message):
        base = "const c : i. const p : i -> o. const q : i -> o.\n"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ps.parse_program(base + text)

    def test_clause_outside_first_order_grammar(self):
        text = (
            "const 0 : i. const scons : i -> i -> i. const bitstream : i -> o.\n"
            "bitstream (fix \\x. scons 0 x)."
        )
        with pytest.raises(SourceTypeError):
            ps.parse_program(text)


class TestParseGoalTerm:
    def test_existential_goal(self, bitstream_program):
        g = ps.parse_goal("exists y. bitstream [0|y]", bitstream_program)
        assert isinstance(g, Exists)

    def test_core_goal(self, from_program):
        g = ps.parse_goal("forall x. from x (fr_str x)", from_program)
        assert isinstance(g, Forall)
        inner = g.body
        assert isinstance(inner, Atom)

    def test_constant_term(self, bitstream_program):
        assert ps.parse_term("0", bitstream_program) == C("0")
        assert tm.typecheck(bitstream_program.signature, {}, C("0")) == tm.IOTA

    def test_fix_names_resolve_to_terms(self, bitstream_program):
        t = ps.parse_term("n_str 0", bitstream_program)
        assert tm.has_fix(t)

    def test_unknown_identifier(self, bitstream_program):
        with pytest.raises(SourceTypeError):
            ps.parse_goal("bitstream (qqq 0)", bitstream_program)

    def test_text_may_end_with_one_dot_and_nothing_more(self, member_program):
        prog = member_program
        assert ps.parse_goal("member 0 nil.", prog) == ps.parse_goal("member 0 nil", prog)
        assert ps.parse_term("0.", prog) == C("0")
        for parse, text, span in [
            (ps.parse_goal, "member 0 nil. junk (", (1, 15)),
            (ps.parse_goal, "member 0 nil..", (1, 14)),
            (ps.parse_term, "0. 0", (1, 4)),
        ]:
            with pytest.raises(ParseError, match="^trailing input") as exc:
                parse(text, prog)
            assert type(exc.value) is ParseError and exc.value.span == span, text

    def test_goal_and_term_are_type_checked_before_they_are_normalised(self, member_program):
        # beta-normalising these ill-typed texts would not terminate
        with pytest.raises(TypeMismatch, match="circular type constraint"):
            ps.parse_goal("member ((\\x. x x) (\\x. x x)) nil", member_program)
        with pytest.raises(TypeMismatch, match="circular type constraint"):
            ps.parse_term("(\\x. x x) (\\x. x x)", member_program)

    def test_a_term_whose_normal_form_has_an_ambiguous_type_is_refused(self, bitstream_program):
        # the vanishing argument scons 0 a alone fixes a : i
        with pytest.raises(TypeMismatch, match=r"^ambiguous type for fix \\x\. x;"):
            ps.parse_term("(\\a. (\\p. \\q. p) a (scons 0 a)) (fix \\x. x)", bitstream_program)

    def test_a_parsed_goal_is_its_own_canonical_form(self, from_program, member_program):
        for f in (ps.parse_goal("forall x. from x (fr_str x)", from_program),
                  ps.parse_goal("member ((\\x. x) 0) [0|nil]", member_program)):
            # atoms come back beta-normal, so normalising again changes nothing
            assert fm.map_atoms(f, tm.beta_normalize) is f

    @pytest.mark.parametrize("doublings", [11, 12, 14])
    def test_nesting_past_the_stack_after_the_parse_is_nesting_too_deep(self, from_program, doublings):
        # the text parses, but its normal form applies s 2^doublings times,
        # so the stack runs out in the normalisation or the type check
        twice = "(\\f. \\x. f (f x))"
        t = "s"
        for _ in range(doublings):
            t = f"({twice} {t})"
        with pytest.raises(NestingTooDeep, match="^nesting too deep$"):
            ps.parse_term(f"{t} 0", from_program)
        with pytest.raises(NestingTooDeep, match="^nesting too deep$"):
            ps.parse_goal(f"from ({t} 0) (fr_str 0)", from_program)

    @pytest.mark.parametrize("binders", [330, 400, 500])
    def test_a_deep_ill_typed_text_is_a_brief_type_error(self, from_program, binders):
        # its message prints the term cut short, so it does not run out of
        # stack as the dataclass repr did
        lams = "\\x. " * binders
        with pytest.raises(TypeMismatch, match=r"^ambiguous type for \(\\x\. \\x\. .{0,60}; add context"):
            ps.parse_term(f"({lams}0) 0", from_program)
        with pytest.raises(TypeMismatch, match=r"^cannot match i with \?1 -> \?2 -> .{0,60} at s \(\\x\. .{0,60}$"):
            ps.parse_goal(f"from (s ({lams}0)) (fr_str 0)", from_program)


class TestPrettyRoundTrip:
    def test_clause_round_trip(self, member_program, bitstream_program, from_program, comember_program, fibs_program):
        for prog in (member_program, bitstream_program, from_program, comember_program, fibs_program):
            for c in prog.clauses:
                text = ps.pp_formula(c, prog)
                back = ps.parse_goal(text, prog)
                assert fm.formula_alpha_eq(c, back), text

    def test_term_round_trip(self, bitstream_program, from_program):
        samples = [
            ("bitstream [0|n_str 0]", bitstream_program),
            ("bitstream z_str", bitstream_program),
            ("from (s 0) (fr_str (s 0))", from_program),
        ]
        for text, prog in samples:
            f = ps.parse_goal(text, prog)
            again = ps.parse_goal(ps.pp_formula(f, prog), prog)
            assert fm.formula_alpha_eq(f, again)

    def test_a_binder_type_applies_to_every_name_and_i_is_the_default(self, member_program):
        typed = ps.parse_goal("forall x y : i. member x y", member_program)
        assert typed == ps.parse_goal("forall x y. member x y", member_program)
        f = ps.parse_goal("exists x. exists f g : i -> i. exists y. member (f x) (g y)", member_program)
        binders = []
        while isinstance(f, Exists):
            binders.append((f.var, repr(f.ty)))
            f = f.body
        assert binders == [("x", "i"), ("f", "i -> i"), ("g", "i -> i"), ("y", "i")]

    def test_binders_are_grouped_by_type_and_a_type_other_than_i_is_written(self, member_program):
        fn = fn_type(tm.IOTA, tm.IOTA)
        body = fm.Atom(A(C("member"), A(V("f"), V("x")), A(V("g"), V("y"))))
        f = Forall("x", tm.IOTA, Forall("f", fn, Forall("g", fn, Forall("y", tm.IOTA, body))))
        text = ps.pp_formula(f, member_program)
        assert text == "forall x. forall f g : i -> i. forall y. member (f x) (g y)"
        assert ps.parse_goal(text, member_program) == f

    def test_fresh_binders_print_clean(self, bitstream_program):
        t = tm.Fix(tm.Lam("x#7", scons(C("0"), V("x#7"))))
        text = ps.pp_term(t, None)
        assert "#" not in text

    def test_random_formula_round_trip(self, bitstream_program):
        rng = random.Random(7)
        prog = bitstream_program
        atoms = ["bit 0", "bit 1", "bitstream [0|n_str 0]", "bitstream z_str", "eq 0 0" if False else "bit 0"]

        def gen(depth):
            if depth == 0:
                return rng.choice(atoms)
            kind = rng.choice(["atom", "conj", "disj", "impl", "forall", "exists", "true"])
            if kind == "atom":
                return rng.choice(atoms)
            if kind == "true":
                return "true"
            if kind in ("conj", "disj", "impl"):
                op = {"conj": "/\\", "disj": "\\/", "impl": "=>"}[kind]
                return f"({gen(depth - 1)}) {op} ({gen(depth - 1)})"
            q = "forall" if kind == "forall" else "exists"
            v = rng.choice(["x", "y"])
            return f"{q} {v}. ({gen(depth - 1)}) \\/ bit {v}" if q == "exists" else f"{q} {v}. bit {v}"

        for _ in range(120):
            f = ps.parse_goal(gen(3), prog)
            back = ps.parse_goal(ps.pp_formula(f, prog), prog)
            assert fm.formula_alpha_eq(f, back)

    def test_fuzz_never_panics(self):
        rng = random.Random(99)
        alphabet = "abXY01 .:-=>()[]|\\/\n,#%'~"
        for _ in range(500):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
            try:
                ps.parse_program(text)
            except CupError:
                pass

    def test_fuzz_hypothesis_arbitrary_text(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, deadline=None)
        @given(st.text(max_size=120))
        def run(text):
            try:
                ps.parse_program(text)
            except CupError:
                pass

        run()

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            ps.parse_program("const p : o.\n" + "(" * 40000 + "p" + ")" * 40000 + ".")


class TestProofDocuments:
    def test_round_trip_member(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["member67"]
        doc = ps.export_proof(res.tree, prog)
        back = ps.import_proof(doc, prog)
        assert res.tree.equal(back)
        assert back.rule == "co-fix"
        # hand count over the reference derivation: co-fix, guarded decide,
        # three guarded universal steps, the guarded implication step, and
        # the three initial leaves with their decide/universal scaffolding
        assert res.tree.size() == 13
        leaves = [n for n in res.tree.nodes() if not n.children]
        assert len(leaves) == 3
        assert all(n.rule.startswith("initial") for n in leaves)

    def test_a_binder_of_function_type_survives_the_document(self):
        prog = ps.parse_program("const 0 : i. const s : i -> i.")
        goal = Exists("f", fn_type(tm.IOTA, tm.IOTA), fm.TOP)
        res = eng.prove(prog, eng.LemmaStore(), goal, eng.SearchConfig(calculus=Calculus.HOHH))
        assert res.proved and res.tree.witness == C("s")
        doc = ps.export_proof(res.tree, prog)
        assert json.loads(doc)["nodes"][0]["goal"] == "exists f : i -> i. true"
        back = ps.import_proof(doc, prog)
        assert res.tree.equal(back)
        assert eng.check(back, prog, Calculus.HOHH) == (True, None)

    def test_single_top_node(self, bitstream_program):
        prog = bitstream_program
        res = eng.prove(prog, None, fm.TOP, eng.SearchConfig(calculus=Calculus.FOHC))
        assert res.proved and res.tree.size() == 1
        doc = ps.export_proof(res.tree, prog)
        back = ps.import_proof(doc, prog)
        assert res.tree.equal(back)

    def test_tampered_rule_rejected_by_checker(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["bitstream"]
        doc = json.loads(ps.export_proof(res.tree, prog))
        doc["nodes"][1]["rule"] = "decide"
        tree = ps.import_proof(json.dumps(doc), prog)
        ok, diag = eng.check(tree, prog, calc)
        assert not ok and diag

    def test_missing_field_rejected(self, bitstream_program):
        with pytest.raises(MalformedDocument, match="missing fields"):
            ps.import_proof('{"format": "flat", "nodes": [{"rule": "co-fix"}]}', bitstream_program)

    def test_a_chain_four_times_the_old_cap_reads_under_the_default_limit(self, bitstream_program, monkeypatch):
        # 20 000 nodes deep, where the nested form stopped at about 5 000
        assert sys.getrecursionlimit() == 1000
        monkeypatch.setattr(sys, "setrecursionlimit", lambda _n: pytest.fail("the recursion limit was set"))
        tree = ps.import_proof(deep_document(20_000), bitstream_program)
        assert sys.getrecursionlimit() == 1000
        assert tree.size() == 20_001 and tree.rule == "and-r"
        lines, expected = ps.export_proof(tree, bitstream_program).splitlines(), deep_document(20_000).splitlines()
        # the first line that differs, not the whole texts: pytest's diff of
        # two 2.3 MB strings takes minutes
        assert next(((i, a, b) for i, (a, b) in enumerate(zip(lines, expected)) if a != b), None) is None
        assert len(lines) == len(expected)

    def test_the_library_reads_a_deep_document_under_the_default_limit(self, deep_nat_proof):
        # 541 nodes deep: reading, checking and counting take no stack per level
        assert sys.getrecursionlimit() == 1000
        prog, out, _code, _printed = deep_nat_proof
        program = ps.parse_program(prog.read_text())
        tree = ps.import_proof(out.read_text(), program)
        assert sys.getrecursionlimit() == 1000
        assert eng.check(tree, program, Calculus.FOHC) == (True, None)
        assert tree.size() == 722

    def test_payload_nested_past_the_stack_is_malformed(self, bitstream_program):
        doc = json.loads(deep_document(0))
        doc["nodes"][0]["goal"] = "(" * 40000 + "true" + ")" * 40000
        with pytest.raises(MalformedDocument, match="^unparseable proof payload: nesting too deep$"):
            ps.import_proof(json.dumps(doc), bitstream_program)

    @pytest.mark.parametrize("payload, message", [
        ("bit 0. junk", "trailing input 'junk'"),
        ("bit ((\\x. x x) (\\x. x x))", "circular type constraint"),
    ])
    def test_bad_goal_payload_is_unparseable(self, bitstream_program, payload, message):
        doc = json.loads(deep_document(0))
        doc["nodes"][0]["goal"] = payload
        with pytest.raises(MalformedDocument, match="^unparseable proof payload: .*" + re.escape(message)):
            ps.import_proof(json.dumps(doc), bitstream_program)

    def test_not_json_rejected(self, bitstream_program):
        with pytest.raises(MalformedDocument):
            ps.import_proof("not json at all", bitstream_program)

    def test_duplicate_signature_addition_rejected(self, regression_proofs):
        prog, _g, _calc, res = regression_proofs["from"]
        doc = json.loads(stated_document(res.tree, prog))
        node = doc["nodes"][2]
        assert node["signature_additions"]
        node["signature_additions"] = ["0 : i"]
        with pytest.raises(SignatureMismatch):
            ps.import_proof(json.dumps(doc), prog)

    def test_document_fields_exact(self, regression_proofs):
        prog, _g, _calc, res = regression_proofs["from"]
        doc = json.loads(ps.export_proof(res.tree, prog))
        assert list(doc) == ["format", "nodes"] and doc["format"] == "flat"
        root, *below = doc["nodes"]
        assert list(root) == ["rule", "children", "signature_additions", "program_additions", "goal", "guarded", "premises"]
        for node in below:
            assert {"rule", "children", "premises"} <= set(node) <= {"rule", "children", "witness", "eigen", "premises"}
            assert type(node["children"]) is int and type(node["premises"]) is int
        # the universal right rules name their eigenvariable, and only they
        eigens = [(node.rule, node.eigen) for node in res.tree.nodes()]
        assert [(n["rule"], n.get("eigen")) for n in doc["nodes"]] == eigens
        assert {rule for rule, eigen in eigens if eigen} == {"forall-r<>"}
        assert [node["children"] for node in doc["nodes"]] == [len(n.children) for n in res.tree.nodes()]


HEAD = "const 0 : i. const scons : i -> i -> i. const p : i -> o.\n"
DEEP = "(" * 40000 + "{}" + ")" * 40000

# (id, entry point, text, error class, message, span): one or more rows for
# each place tokenising, parsing or resolving a name raises.  A goal or
# term is read over the member program.
ERROR_ROWS = [
    ("marker-in-program", "program", "const x#1 : i.", ParseError, "reserved marker '#' in identifier", (1, 8)),
    ("marker-in-goal", "goal", "member 0 nil #", ParseError, "reserved marker '#' in identifier", (1, 14)),
    ("unexpected-character", "program", "const 0 : i.\np ~ 0.", ParseError, "unexpected character '~'", (2, 3)),
    ("missing-colon", "program", "const 0 i.", ParseError, "expected ':', found 'i'", (1, 9)),
    ("missing-final-dot", "program", HEAD + "forall x. p x", ParseError, "expected '.', found ''", (2, 14)),
    ("second-neck", "program", HEAD + "p 0 :- p 0 :- p 0.", ParseError, "expected '.', found ':-'", (2, 12)),
    ("declared-name-missing", "program", "const : i.", ParseError, "expected an identifier, found ':'", (1, 7)),
    ("binder-name-missing", "program", HEAD + "forall . p 0.", ParseError, "expected an identifier, found '.'", (2, 8)),
    ("empty-parentheses", "program", HEAD + "p ().", ParseError, "expected a term, found ')'", (2, 4)),
    ("empty-body", "program", HEAD + "p 0 :- .", ParseError, "expected a term, found '.'", (2, 8)),
    # a binder type after a colon is a type
    ("binder-type-missing", "goal", "exists f : . true", ParseError, "expected an identifier, found '.'", (1, 12)),
    ("unclosed-binder-type", "goal", "forall x : (i -> i. true", ParseError, "expected ')', found '.'", (1, 19)),
    # the only base types are i and o
    ("unknown-base-type-in-declaration", "program", "const c : foo.", SourceTypeError,
     "unknown base type 'foo'", (1, 11)),
    ("unknown-base-type-of-binder", "goal", "exists x : foo. true", SourceTypeError,
     "unknown base type 'foo'", (1, 12)),
    ("unknown-base-type-in-arrow", "goal", "forall f : i -> foo. true", SourceTypeError,
     "unknown base type 'foo'", (1, 17)),
    ("sugar-without-tail-in-goal", "goal", "member 0 [0]", ParseError, "bracket sugar needs [head|tail]", (1, 10)),
    ("sugar-without-tail-in-clause", "program", HEAD + "p [X] :- p X.", ParseError,
     "bracket sugar needs [head|tail]", (2, 3)),
    # a lowercase name in sugar; a capitalised one in explicit syntax
    ("unknown-lowercase-name", "program", HEAD + "p [X|T] :- p T, q X.", SourceTypeError,
     "unknown identifier 'q'", (2, 17)),
    ("unknown-capitalised-name", "program", HEAD + "forall x. p X => p x.", SourceTypeError,
     "unknown identifier 'X'", (2, 13)),
    # a syntax error later in the clause is reported first
    ("later-syntax-error-first", "program", HEAD + "p q :- p (.", ParseError, "expected a term, found '.'", (2, 11)),
    ("unknown-name-in-definition", "program", HEAD + "def z = fix \\x. scons y x.", SourceTypeError,
     "unknown identifier 'y'", (2, 23)),
    ("unknown-scons-in-definition", "program", "const 0 : i.\ndef z = fix \\x. scons 0 x.", SourceTypeError,
     "unknown identifier 'scons'", (2, 17)),
    # bracket sugar names `scons` at its `[`, before the items
    ("unknown-scons-of-sugar", "program", "const 0 : i. const p : i -> o.\np [qqq|0].", SourceTypeError,
     "unknown identifier 'scons'", (2, 3)),
    # read twice: in the failed attempt at `(formula)`, then as a term
    ("unknown-name-read-twice", "goal", "((member qqq) 0) nil", SourceTypeError, "unknown identifier 'qqq'", (1, 10)),
    ("trailing-parenthesis", "goal", "member 0 nil )", ParseError, "trailing input ')'", (1, 14)),
    ("trailing-bracket", "term", "0 0 ]", ParseError, "trailing input ']'", (1, 5)),
    ("constant-declared-twice", "program", "const 0 : i. const 0 : i.", ParseError, "'0' declared twice", (1, 20)),
    ("definition-declared-twice", "program", HEAD + "def z = fix \\x. scons 0 x.\ndef z = fix \\x. scons 0 x.",
     ParseError, "'z' declared twice", (3, 5)),
    # the name clash is found before the second body's guardedness
    ("definition-clash-before-guardedness", "program", HEAD + "def z = fix \\x. scons 0 x.\ndef z = fix \\x. x.",
     ParseError, "'z' declared twice", (3, 5)),
    ("definition-names-a-constant", "program", HEAD + "def p = fix \\x. scons 0 x.", ParseError,
     "'p' declared twice", (2, 5)),
    ("unguarded-definition", "program", HEAD + "def z = fix \\x. x.", GuardednessError,
     "definition 'z' is not a guarded fixed point term: body head is not a constant", (2, 5)),
    ("second-order-constant", "program", "const apply : (i -> i) -> i.", SourceTypeError,
     "constant apply has order 2 type (i -> i) -> i", (1, 7)),
    ("ill-typed-clause", "program", HEAD + "p p.", SourceTypeError,
     "ill-typed clause: cannot match i with i -> o at p p", (2, 1)),
    ("clause-outside-first-order-grammar", "program", HEAD + "p (fix \\x. scons 0 x).", SourceTypeError,
     "clause is outside the first-order clause grammar", (2, 1)),
    ("program-nesting-too-deep", "program", HEAD + DEEP.format("p 0") + ".", NestingTooDeep, "nesting too deep", None),
    ("goal-nesting-too-deep", "goal", DEEP.format("true"), NestingTooDeep, "nesting too deep", None),
    ("term-nesting-too-deep", "term", DEEP.format("0"), NestingTooDeep, "nesting too deep", None),
]


@pytest.mark.parametrize("entry, text, cls, message, span", [r[1:] for r in ERROR_ROWS], ids=[r[0] for r in ERROR_ROWS])
def test_error_class_message_and_span(member_program, entry, text, cls, message, span):
    parse = {
        "program": ps.parse_program,
        "goal": lambda t: ps.parse_goal(t, member_program),
        "term": lambda t: ps.parse_term(t, member_program),
    }[entry]
    with pytest.raises(CupError) as exc:
        parse(text)
    assert (type(exc.value), str(exc.value), exc.value.span) == (cls, message, span)


NOT_GUARDED = "definition {!r} is not a guarded fixed point term: "

# (id, definition, error class, message): each guardedness violation and
# each type error a definition can raise, read after HEAD, so every span
# is the definition's name at (2, 5)
DEFINITION_ROWS = [
    ("self-application-arity", "def d = fix \\x. \\y. scons y x.", GuardednessError,
     NOT_GUARDED.format("d") + "self-application arity differs from the parameter count"),
    ("not-fully-applied", "def d = fix \\x. scons x.", GuardednessError,
     NOT_GUARDED.format("d") + "constructor scons is not fully applied"),
    ("head-not-a-constructor", "def d = fix \\x. p x.", GuardednessError,
     NOT_GUARDED.format("d") + "constructor p is not of type i -> ... -> i"),
    ("untypable-argument", "def d = fix \\x. scons (0 0) x.", GuardednessError,
     NOT_GUARDED.format("d") + "argument 0 0 cannot be typed: cannot match i with i -> ?1 at 0 0"),
    ("non-first-order-argument", "def d = fix \\x. scons (fix \\y. scons 0 y) x.", GuardednessError,
     NOT_GUARDED.format("d") + "argument fix \\y. scons 0 y is not a first-order term of type i"),
    ("not-a-fixed-point", "def d = 0.", GuardednessError, NOT_GUARDED.format("d") + "not of the form fix \\x. ..."),
    # a shadowed parameter never occurs: no renaming of the binders is guarded
    ("repeated-binder", "def d = fix \\x. \\y. \\y. scons y (x y y).", GuardednessError,
     NOT_GUARDED.format("d") + "binder names repeat in ['x', 'y', 'y']"),
    ("ambiguous-type", "def z = fix \\x. \\y. scons 0 (x y).", SourceTypeError,
     "ambiguous type for fix \\x. \\y. scons 0 (x y); add context or apply the term"),
    # the vanishing argument alone fixes y : i, so only the normal form is ambiguous
    ("ambiguous-normal-form", "def z = fix \\x. \\y. (\\q. scons 0 (x y)) (scons 0 y).", SourceTypeError,
     "ambiguous type for fix \\x. \\y. scons 0 (x y); add context or apply the term"),
    # ill-typed bodies whose beta-normalisation would not terminate: they
    # are checked for guardedness but never normalised
    ("omega", "def bad = (\\x. x x) (\\x. x x).", GuardednessError,
     NOT_GUARDED.format("bad") + "not of the form fix \\x. ..."),
    ("omega-under-fix", "def bad = fix \\s. (\\x. x x) (\\x. x x).", GuardednessError,
     NOT_GUARDED.format("bad") + "body head is not a constant"),
]


@pytest.mark.parametrize("text, cls, message", [r[1:] for r in DEFINITION_ROWS], ids=[r[0] for r in DEFINITION_ROWS])
def test_a_definition_error_names_the_definition(text, cls, message):
    with pytest.raises(CupError) as exc:
        ps.parse_program(HEAD + text)
    assert (type(exc.value), str(exc.value), exc.value.span) == (cls, message, (2, 5))


def test_a_definition_that_types_is_normalised_before_the_guardedness_check():
    program = ps.parse_program(HEAD + "def d = fix \\x. (\\u. scons 0 u) x.")
    assert program.fix_definitions == (("d", tm.Fix(L("x", scons(C("0"), V("x"))))),)


# ---------------------------------------------------------------------------
# the lexer against the per-character reference
# ---------------------------------------------------------------------------


def _lexed(lex, text, allow_fresh):
    """The tokens as tuples, or the error's text and span."""
    try:
        return [(t.kind, t.text, t.line, t.col) if isinstance(t, ps.Token) else t for t in lex(text, allow_fresh)]
    except ParseError as exc:
        return str(exc), exc.span


# letters, digits and blanks beyond ASCII (`\u0663` is a digit, `\x1c`,
# `\x85`, `\xa0` and `\u2003` are blanks), the fresh mark, comments, every
# punctuation mark and characters no token takes
LEX_PIECES = (
    list("aZ0_'#%\t\r\n .~$") + ["\u00e9", "\u00f1", "\u0663", "\x1c", "\x85", "\xa0", "\u2003", "\u20ac"]
    + ["% c", "x#1", "forall", "fix", "true", "const"] + PUNCT
)


def test_the_lexer_matches_the_per_character_reference():
    rng = random.Random(2323)
    for _ in range(12000):
        text = "".join(rng.choice(LEX_PIECES) for _ in range(rng.randrange(12)))
        # a comment that runs to the end of the input leaves the column at its `%`
        text += rng.choice(["", "", "%", "% c", " %", "\n%"])
        for allow_fresh in (False, True):
            assert _lexed(ps.tokenize, text, allow_fresh) == _lexed(tokenize_reference, text, allow_fresh), (
                text, allow_fresh)


def test_a_token_keeps_its_span_and_the_eof_after_a_comment_sits_at_the_percent():
    toks = ps.tokenize("p x. % note\n q  % end")
    assert [t.span for t in toks] == [(1, 1), (1, 3), (1, 4), (2, 2), (2, 5)]
    assert toks[-1] == ps.Token("eof", "", 2, 5)


def test_the_lexer_classes_match_the_str_predicates_on_every_code_point():
    # every code point but the newline, each on a line of its own; the
    # surrogates too, which `str` holds as they are
    codes = array.array("I", (x for c in range(sys.maxunicode + 1) if c != 10 for x in (c, 10)))
    text = codes.tobytes().decode(f"utf-32-{sys.byteorder[0]}e", "surrogatepass")
    single = {p for p in PUNCT if len(p) == 1}
    # one match per character and one per newline; an identifier may hold
    # the fresh mark, which `tokenize` rejects unless it is allowed (the
    # per-character reference test pins that error and its column)
    got = [m.lastgroup for m in ps._LEXER.finditer(text)]
    assert len(got) == len(text) and set(got[1::2]) == {"nl"}
    wrong = []
    for ch, kind in zip(text[::2], got[::2]):
        if ch.isalnum() or ch in "_'" or ch == tm.FRESH_MARK:
            want = "ident"
        elif ch.isspace() or ch == "%":
            want = None  # a blank or a comment, no token
        else:
            want = "punct" if ch in single else "bad"
        if kind != want:
            wrong.append(ch)
    assert wrong == []
