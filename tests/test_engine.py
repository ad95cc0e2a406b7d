import collections
import math
import sys

import pytest

from cup import cli
from cup import engine as eng
from cup import formulas as fm
from cup import parser as ps
from cup import soundness as sd
from cup import terms as tm
from cup import trees as tr
from cup.engine import LemmaStore, SearchConfig, Src, check, coprove, promote_lemma, prove
from cup.errors import FlexibleAtomUnsupported, NotCoreFormula, ProofInvalid
from cup.formulas import Atom, Calculus, Conj, Disj, Exists, Forall, HClause, Impl, TOP
from cup.terms import IOTA, Signature, replace

from helpers import A, C, N_STR, V, fn_type, proof_mutations, proof_paths, replace_at, scons, slist


def rules_of(tree):
    return [n.rule for n in tree.nodes()]


def stack_depth():
    """The number of frames on the interpreter stack at the caller."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestCoproveRegressions:
    def test_member_regression_shape(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["member67"]
        assert rules_of(res.tree) == [
            "co-fix", "decide<>", "forall-l<>", "forall-l<>", "forall-l<>",
            "imp-l<>", "initial", "and-r", "decide", "initial", "decide",
            "forall-l", "initial",
        ]
        ok, diag = check(res.tree, prog, calc)
        assert ok, diag
        # the regular coinductive-hypothesis use: the hypothesis is decided
        # on verbatim in the conjunction's left branch
        decide_focus = res.tree.children[0].children[0].children[0].children[0].children[0]
        assert decide_focus.rule == "imp-l<>"

    def test_bitstream_regression_shape(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["bitstream"]
        assert rules_of(res.tree) == [
            "co-fix", "decide<>", "forall-l<>", "forall-l<>", "imp-l<>",
            "initial", "and-r", "decide", "initial", "decide", "initial",
        ]
        ok, diag = check(res.tree, prog, calc)
        assert ok, diag

    def test_from_regression_shape(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]
        assert rules_of(res.tree) == [
            "co-fix", "forall-r<>", "decide<>", "forall-l<>", "forall-l<>",
            "imp-l<>", "initial", "decide", "forall-l", "initial",
        ]
        # the coinductive hypothesis is instantiated with the successor of
        # the eigenvariable
        ch_use = res.tree.children[0].children[0].children[0].children[0].children[0].children[1]
        assert ch_use.rule == "decide"
        forall_l = ch_use.children[0]
        eigen = res.tree.children[0].eigen
        assert forall_l.witness == A(C("s"), C(eigen))

    def test_comember_regression_shape(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["comember"]
        assert rules_of(res.tree) == [
            "co-fix", "forall-r<>", "forall-r<>", "imp-r<>", "decide<>",
            "forall-l<>", "forall-l<>", "imp-l<>", "initial", "and-r",
            "decide", "forall-l", "forall-l", "imp-l", "initial", "decide",
            "initial", "decide", "initial",
        ]
        ok, diag = check(res.tree, prog, calc)
        assert ok, diag

    # pre-order (rule, eigenvariable, witness) of each regression proof, with
    # the search's node count and final bound: a change in search order or
    # in the fresh names drawn shows here
    SEARCH_GOLDEN = {
        "member67": (38, 9, [
            ("co-fix", None, None), ("decide<>", None, None), ("forall-l<>", None, "0"),
            ("forall-l<>", None, "0"), ("forall-l<>", None, "nil"), ("imp-l<>", None, None),
            ("initial", None, None), ("and-r", None, None), ("decide", None, None),
            ("initial", None, None), ("decide", None, None), ("forall-l", None, "0"),
            ("initial", None, None),
        ]),
        "bitstream": (24, 7, [
            ("co-fix", None, None), ("decide<>", None, None), ("forall-l<>", None, "0"),
            ("forall-l<>", None, "n_str 0"), ("imp-l<>", None, None), ("initial", None, None),
            ("and-r", None, None), ("decide", None, None), ("initial", None, None),
            ("decide", None, None), ("initial", None, None),
        ]),
        "from": (19, 8, [
            ("co-fix", None, None), ("forall-r<>", "x#1", None), ("decide<>", None, None),
            ("forall-l<>", None, "x#1"), ("forall-l<>", None, "fr_str (s x#1)"),
            ("imp-l<>", None, None), ("initial", None, None), ("decide", None, None),
            ("forall-l", None, "s x#1"), ("initial", None, None),
        ]),
        "comember": (77, 14, [
            ("co-fix", None, None), ("forall-r<>", "y#1", None), ("forall-r<>", "s#2", None),
            ("imp-r<>", None, None), ("decide<>", None, None), ("forall-l<>", None, "y#1"),
            ("forall-l<>", None, "s#2"), ("imp-l<>", None, None), ("initial", None, None),
            ("and-r", None, None), ("decide", None, None), ("forall-l", None, "y#1"),
            ("forall-l", None, "f s#2"), ("imp-l", None, None), ("initial", None, None),
            ("decide", None, None), ("initial", None, None), ("decide", None, None),
            ("initial", None, None),
        ]),
    }

    # the `_premises` calls of the member67 search, the root's included: one
    # per distinct (sequent, eigenvariable, witness) that it expands
    MEMBER67_PREMISE_CALLS = 10
    # and those of its reification: one per inner node at or below a node
    # that names a witness, whose reified sequent or witness is new; above
    # them reification keeps the sequents and premise tuples search built
    MEMBER67_REIFY_PREMISE_CALLS = 8

    def test_a_search_builds_the_premises_of_each_sequent_once(self, monkeypatch, member67_program):
        # a deeper bound reads a shallower one's premises from the sequents
        # it meets again; a second search starts from sequents of its own
        calls = collections.Counter()
        phase = ["search"]
        premises, reify = eng._premises, eng._reify

        def counted(*args):
            calls[phase[0]] += 1
            return premises(*args)

        def reifying(*args):
            phase[0] = "reify"
            try:
                return reify(*args)
            finally:
                phase[0] = "search"

        monkeypatch.setattr(eng, "_premises", counted)
        monkeypatch.setattr(eng, "_reify", reifying)
        goal = ps.parse_goal("member 0 [0|nil]", member67_program)
        for _ in range(2):
            calls.clear()
            res = coprove(member67_program, goal, SearchConfig(calculus=Calculus.FOHC))
            assert res.stats.nodes == self.SEARCH_GOLDEN["member67"][0]
            assert calls["search"] == self.MEMBER67_PREMISE_CALLS < res.stats.nodes
            todo, inner = [(res.tree, False)], 0
            while todo:
                node, below = todo.pop()
                below = below or node.witness is not None
                inner += below and bool(node.children)
                todo += ((c, below) for c in node.children)
            assert calls["reify"] == self.MEMBER67_REIFY_PREMISE_CALLS == inner

    # (nodes, leaves) of each regression proof: every node's document line
    # carries its premises index, and reification derives the premises of
    # every node but the leaves
    ROUND_TRIP_SHAPES = {"member67": (13, 3), "bitstream": (11, 3), "from": (10, 2), "comember": (19, 4)}

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_SHAPES))
    def test_a_round_trip_builds_the_premises_of_each_node_once(self, monkeypatch, regression_proofs, name):
        # a proof found afresh, as no other test has exported or checked it:
        # export builds the premises of the leaves only, import those of
        # each node, and check none, since each child it meets is the
        # derived sequent itself
        program, goal, calc, _res = regression_proofs[name]
        tree = coprove(program, goal, SearchConfig(calculus=calc)).tree
        calls = [0]
        premises = eng._premises

        def counted(*args):
            calls[0] += 1
            return premises(*args)

        monkeypatch.setattr(eng, "_premises", counted)
        nodes, leaves = self.ROUND_TRIP_SHAPES[name]
        doc = ps.export_proof(tree, program)
        assert (calls[0], tree.size()) == (leaves, nodes)
        assert sum("premises" in line for line in doc.splitlines()) == nodes
        calls[0] = 0
        back = ps.import_proof(doc, program)
        assert calls[0] == nodes
        calls[0] = 0
        assert check(back, program, calc) == (True, None)
        assert calls[0] == 0

    @pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN))
    def test_search_output_pinned(self, regression_proofs, name):
        prog, _g, _calc, res = regression_proofs[name]
        nodes, max_depth, steps = self.SEARCH_GOLDEN[name]
        assert [
            (n.rule, n.eigen, None if n.witness is None else ps.pp_term(n.witness, prog))
            for n in res.tree.nodes()
        ] == steps
        assert (res.stats.nodes, res.stats.max_depth) == (nodes, max_depth)

    def test_search_deeper_than_the_stack_is_depth_exceeded(self, from_program):
        # the interpreter stack bounds the search like the depth limit does
        g = ps.parse_goal("from 0 (fr_str 0)", from_program)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 200)
        try:
            res = coprove(from_program, g, SearchConfig(calculus=Calculus.HOHC, depth_limit=2000))
        finally:
            sys.setrecursionlimit(limit)
        assert res.reason == "depth-exceeded"
        assert 1 < res.stats.max_depth < 2000

    @pytest.mark.parametrize("clause", ["p ((\\y. y) c).", "p ((\\y. y) X)."])
    def test_clause_with_a_redex_is_beta_normalised(self, clause):
        # the parser beta-normalises the clause: first-order unification
        # needs `p c`, and the checker's alpha key does not normalise
        prog = ps.parse_program("const p : i -> o. const c : i.\n" + clause)
        res = coprove(prog, ps.parse_goal("p c", prog), SearchConfig(calculus=Calculus.FOHC))
        assert res.proved
        ok, diag = check(res.tree, prog, Calculus.FOHC)
        assert ok, diag
        back = ps.import_proof(ps.export_proof(res.tree, prog), prog)
        ok, diag = check(back, prog, Calculus.FOHC)
        assert ok, diag
        assert res.tree.equal(back)

    def test_atomic_hypothesis_never_applies(self, from_program):
        g = ps.parse_goal("from 0 (fr_str 0)", from_program)
        for depth in (4, 9, 17):
            res = coprove(from_program, g, SearchConfig(calculus=Calculus.HOHC, depth_limit=depth))
            assert not res.proved
            assert res.reason == "depth-exceeded"

    def test_non_core_formula_rejected(self, bitstream_program):
        g = ps.parse_goal("exists y. bitstream [0|y]", bitstream_program)
        with pytest.raises(NotCoreFormula):
            coprove(bitstream_program, g, SearchConfig(calculus=Calculus.HOHC))

    def test_higher_order_hypothesis_not_core_in_first_order(self, bitstream_program):
        g = ps.parse_goal("bitstream [0|n_str 0]", bitstream_program)
        with pytest.raises(NotCoreFormula):
            coprove(bitstream_program, g, SearchConfig(calculus=Calculus.FOHC))


class TestProve:
    def test_top(self, bitstream_program):
        res = prove(bitstream_program, None, TOP, SearchConfig(calculus=Calculus.FOHC))
        assert res.proved and rules_of(res.tree) == ["top-r"]

    def test_inductive_style_member(self, member12_program):
        g = ps.parse_goal("member 1 [0|1|nil]", member12_program)
        res = prove(member12_program, None, g, SearchConfig(calculus=Calculus.FOHC))
        assert res.proved
        assert rules_of(res.tree).count("decide") == 2
        ok, diag = check(res.tree, member12_program, Calculus.FOHC)
        assert ok, diag

    def test_exists_with_promoted_lemma(self, regression_proofs):
        prog, goal, calc, res = regression_proofs["bitstream"]
        lemma = HClause((), (), goal.term if isinstance(goal, Atom) else None)
        store = promote_lemma(prog, lemma, res.tree, LemmaStore())
        g = ps.parse_goal("exists y. bitstream [0|y]", prog)
        out = prove(prog, store, g, SearchConfig(calculus=Calculus.HOHC))
        assert out.proved
        witnesses = [n.witness for n in out.tree.nodes() if n.rule == "exists-r"]
        assert tm.alpha_eq(witnesses[0], A(N_STR, C("0")))

    def test_lemma_for_ground_comember(self, regression_proofs):
        prog, goal, calc, res = regression_proofs["comember"]
        lemma = fm.to_h_clauses(goal)[0]
        store = promote_lemma(prog, lemma, res.tree, LemmaStore())
        g = ps.parse_goal("comember_bit 0 [0|1]", prog)
        out = prove(prog, store, g, SearchConfig(calculus=Calculus.FOHC))
        assert out.proved

    def test_definite_failure_is_not_inconclusive(self):
        prog = ps.parse_program("const p : o. const q : o.\np.")
        g = ps.parse_goal("q", prog)
        res = prove(prog, None, g, SearchConfig(calculus=Calculus.FOHC, depth_limit=16))
        assert res.reason == "no-proof"

    def test_a_proof_deeper_than_the_stack_is_depth_exceeded(self):
        # the `nat` chain of 120 nested `s` needs more frames than the
        # lowered limit leaves; the search answers, and nothing raises
        program = ps.parse_program(TestCostsAsCounts.NAT)
        goal = ps.parse_goal("nat " + "(s " * 120 + "0" + ")" * 120, program)
        cfg = SearchConfig(calculus=Calculus.FOHC, depth_limit=5000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 250)
        try:
            res = prove(program, None, goal, cfg)
        finally:
            sys.setrecursionlimit(limit)
        # only the stack's answer stops short of the depth limit
        assert (res.reason, res.tree) == ("depth-exceeded", None)
        assert res.stats.max_depth < cfg.depth_limit
        assert prove(program, None, goal, cfg).proved

    def test_flexible_atom_rejected_at_search(self, bitstream_program):
        g = fm.Exists("p", fn_type(tm.IOTA, tm.O), Atom(A(V("p"), C("0"))))
        with pytest.raises(FlexibleAtomUnsupported):
            prove(bitstream_program, None, g, SearchConfig(calculus=Calculus.HOHH))


class TestChecker:
    def test_regressions_check(self, regression_proofs):
        for name, (prog, _g, calc, res) in regression_proofs.items():
            ok, diag = check(res.tree, prog, calc)
            assert ok, (name, diag)

    def test_decide_guard_restriction(self, regression_proofs):
        # retarget the guarded decide at the coinductive hypothesis
        prog, _g, calc, res = regression_proofs["bitstream"]
        ch = res.tree.sequent.goal
        node = res.tree.children[0].children[0]
        bad_child = eng.ProofTree(
            node.sequent.with_(focus=ch),
            node.rule,
            node.witness,
            node.eigen,
            node.children,
        )
        bad = eng.ProofTree(
            res.tree.sequent,
            "co-fix",
            children=(
                eng.ProofTree(
                    res.tree.children[0].sequent,
                    "decide<>",
                    children=(bad_child,),
                ),
            ),
        )
        ok, diag = check(bad, prog, calc)
        assert not ok
        assert "original program" in diag

    def test_stale_eigenvariable_rejected(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["from"]

        def clobber(node):
            if node.rule == "forall-r<>":
                # replace the eigenvariable with one already in the signature
                return eng.ProofTree(node.sequent, node.rule, node.witness, "0", node.children)
            return eng.ProofTree(
                node.sequent, node.rule, node.witness, node.eigen, tuple(clobber(c) for c in node.children)
            )

        ok, diag = check(clobber(res.tree), prog, calc)
        assert not ok and "eigenvariable" in diag

    def test_cofix_only_at_root(self, regression_proofs):
        prog, _g, calc, res = regression_proofs["bitstream"]
        inner = res.tree.children[0]
        nested = eng.ProofTree(res.tree.sequent, "co-fix", children=(res.tree,))
        ok, _ = check(nested, prog, calc)
        assert not ok

    def test_root_entries_checked_at_both_root_kinds(self, member_program):
        # a proof over member.cup plus `member X Y.` proves the false
        # `member 1 [0|nil]`; checked against member.cup alone, the extra
        # clause at the root must be refused, at a co-fix root as at a plain one
        loose = ps.parse_program(open(cli.corpus_path("member.cup")).read() + "member X Y.\n")
        g = ps.parse_goal("member 1 [0|nil]", loose)
        cfg = SearchConfig(calculus=Calculus.FOHC)
        for res in (coprove(loose, g, cfg), prove(loose, None, g, cfg)):
            assert res.proved
            assert check(res.tree, loose, Calculus.FOHC) == (True, None)
            ok, diag = check(res.tree, member_program, Calculus.FOHC)
            assert not ok and "extra original clause" in diag

    def test_premise_with_another_signature_rejected(self, regression_proofs):
        # every non-root node of every regression proof, its signature
        # given one constant more than its premise has
        cases = 0
        for name, (prog, _g, calc, res) in regression_proofs.items():
            for path, node in proof_paths(res.tree):
                if not path:
                    continue
                seq = node.sequent
                wider = replace(node, sequent=seq.with_(signature=seq.signature.extend("extra", tm.IOTA)))
                ok, diag = check(replace_at(res.tree, path, wider), prog, calc)
                assert not ok and "premises do not match" in diag, (name, path, diag)
                cases += 1
        assert cases > 40

    def test_a_stray_witness_or_eigenvariable_is_rejected(self, regression_proofs):
        # every node of every regression proof whose rule takes none, given
        # a witness or an eigenvariable
        cases = 0
        for name, (prog, _g, calc, res) in regression_proofs.items():
            for path, node in proof_paths(res.tree):
                where = ".".join(["root", *map(str, path)])
                strays = []
                if node.rule not in ("exists-r", "forall-l", "forall-l<>"):
                    strays.append((replace(node, witness=C(prog.signature.constants[0][0])), "witness"))
                if node.rule not in ("forall-r", "forall-r<>"):
                    strays.append((replace(node, eigen="stray"), "eigenvariable"))
                for stray, what in strays:
                    got = check(replace_at(res.tree, path, stray), prog, calc)
                    assert got == (False, f"{where}: {node.rule} takes no {what}"), (name, path)
                    cases += 1
        assert cases > 80

    def test_mutation_grid_rejected(self, regression_proofs):
        # every node of every regression proof, broken one way at a time
        kinds = set()
        for name, (prog, _g, calc, res) in regression_proofs.items():
            for path, mutation, tree in proof_mutations(res.tree):
                ok, _diag = check(tree, prog, calc)
                assert not ok, (name, path, mutation)
                kinds.add(mutation.rstrip("-0123456789"))
        assert kinds == {
            "goal-true", "drop-entry", "flip-guard", "rename-tag", "rename-top", "clear-eigen",
            "drop-premise", "dup-premise", "other-witness", "swap-conj-goal",
        }

    def test_first_order_witness_restriction(self, regression_proofs):
        # a fix-term witness is rejected when checking in a first-order calculus
        prog, _g, _calc, res = regression_proofs["bitstream"]
        ok_hohc, _ = check(res.tree, prog, Calculus.HOHC)
        ok_fohc, diag = check(res.tree, prog, Calculus.FOHC)
        assert ok_hohc and not ok_fohc

    def test_fragment_monotonicity_of_found_proofs(self, regression_proofs):
        order = {
            Calculus.FOHC: [Calculus.FOHC, Calculus.FOHH, Calculus.HOHC, Calculus.HOHH],
            Calculus.FOHH: [Calculus.FOHH, Calculus.HOHH],
            Calculus.HOHC: [Calculus.HOHC, Calculus.HOHH],
            Calculus.HOHH: [Calculus.HOHH],
        }
        for name, (prog, _g, calc, res) in regression_proofs.items():
            for upper in order[calc]:
                ok, diag = check(res.tree, prog, upper)
                assert ok, (name, upper, diag)

    def test_guard_discipline(self, regression_proofs):
        # on every root-to-leaf path the goal stays guarded from the root
        # until exactly one guard-discharging step
        for name, (_prog, _g, _calc, res) in regression_proofs.items():
            def paths(node, acc):
                acc = acc + [node]
                if not node.children:
                    yield acc
                for c in node.children:
                    yield from paths(c, acc)

            for path in paths(res.tree, []):
                discharging = [
                    n for n in path if n.rule in ("imp-l<>", "initial<>")
                ]
                assert len(discharging) <= 1
                seen_discharge = False
                for n in path[1:]:
                    if n.rule in ("imp-l<>", "initial<>"):
                        seen_discharge = True
                        continue
                    if not seen_discharge:
                        assert n.sequent.guarded, (name, rules_of(res.tree))
                # the hypothesis is never the guarded decide's focus
                for parent, child in zip(path, path[1:]):
                    if parent.rule == "decide<>":
                        srcs = [
                            e.src
                            for e in parent.sequent.entries
                            if fm.formula_alpha_eq(e.formula, child.sequent.focus)
                        ]
                        assert Src.ORIGINAL in srcs

    def member_proof(self, member_program):
        # decide, forall-l with witness 0, forall-l with witness nil, initial
        goal = ps.parse_goal("member 0 [0|nil]", member_program)
        res = prove(member_program, None, goal, SearchConfig(calculus=Calculus.FOHC))
        assert rules_of(res.tree) == ["decide", "forall-l", "forall-l", "initial"]
        return res.tree

    def test_root_entries_out_of_program_order(self, member_program):
        # only the root's entries are swapped: no document can say this, as
        # an imported root always holds the program's clauses in order
        tree = self.member_proof(member_program)
        e = tree.sequent.entries
        swapped = replace(tree, sequent=tree.sequent.with_(entries=(e[1], e[0], *e[2:])))
        assert check(swapped, member_program, Calculus.FOHC) == (
            False, "root: root program entries differ from the program")

    def test_a_witness_that_is_not_closed(self, member_program):
        # an imported witness is parsed and type-checked, so none is open
        tree = self.member_proof(member_program)
        node = tree.children[0]
        open_witness = replace_at(tree, (0,), replace(node, witness=V("y")))
        assert check(open_witness, member_program, Calculus.FOHC) == (
            False, "root.0: witness y is not a closed well-typed term: variable y has no declared type")


class TestProofTreeEqual:
    def test_each_field_tells_two_nodes_apart(self, member_program):
        goal = ps.parse_goal("member 0 [0|nil]", member_program)
        node = prove(member_program, None, goal, SearchConfig(calculus=Calculus.FOHC)).tree.children[0]
        assert node.rule == "forall-l" and node.witness == C("0") and node.eigen is None
        no_witness = replace(node, witness=None)
        others = {
            "rule": replace(node, rule="exists-r"),
            "eigen": replace(node, eigen="c#1"),
            "no witness": no_witness,
            "another witness": replace(node, witness=C("1")),
            "sequent": replace(node, sequent=node.sequent.with_(guarded=True)),
            "children": replace(node, children=()),
        }
        assert node.equal(replace(node))
        for field, other in others.items():
            assert not node.equal(other), field
        assert not no_witness.equal(node)


class TestDeepTrees:
    def test_a_chain_deeper_than_the_stack_is_walked_without_recursion(self):
        # 2 000 decide -> imp-l steps over `p :- p`, each imp-l closing its
        # focused premise at initial; the last decide has no premise
        assert sys.getrecursionlimit() == 1000
        program = ps.parse_program("const p : o. p :- p.")
        clause = program.clauses[0]
        goal = ps.parse_goal("p", program)
        seq = eng.Sequent(program.signature, eng.base_entries(program), None, goal)
        initial = eng.ProofTree(seq.with_(focus=clause.right), "initial")
        tree = eng.ProofTree(seq, "decide")
        for _ in range(2000):
            tree = eng.ProofTree(seq, "decide", children=(
                eng.ProofTree(seq.with_(focus=clause), "imp-l", children=(initial, tree)),))
        assert tree.size() == 6001
        assert tree.equal(tree)
        assert check(tree, program, Calculus.FOHC) == (
            False, "root" + ".0.1" * 2000 + ": decide premises do not match the rule")


class TestCostsAsCounts:
    """Costs pinned as call counts, which a fixed program makes exact, and
    bounded by their growth exponent, never by an absolute count."""

    NAT = "const 0 : i. const s : i -> i. const nat : i -> o. nat 0. nat (s X) :- nat X.\n"

    def test_import_and_check_of_the_nat_chain_type_at_most_quadratically(self, monkeypatch):
        # the `nat` proof of n nested `s`, found and exported, then read and
        # checked over a freshly parsed program, whose signature has typed
        # nothing yet. Its document grows by 2.26 and 2.51 per doubling, and
        # the type inferences by 2^1.93 and 2^1.97 (440, 1 680, 6 560), all
        # of them the witnesses' now that only the formulas that enter the
        # proof are classified
        infer, counts = tm._Infer.infer, []

        def counted(self, *args):
            counts[-1] += 1
            return infer(self, *args)

        for n in (20, 40, 80):
            program = ps.parse_program(self.NAT)
            goal = ps.parse_goal("nat " + "(s " * n + "0" + ")" * n, program)
            res = prove(program, None, goal, SearchConfig(calculus=Calculus.FOHC, depth_limit=5000))
            doc = ps.export_proof(res.tree, program)
            fresh = ps.parse_program(self.NAT)
            counts.append(0)
            monkeypatch.setattr(tm._Infer, "infer", counted)
            assert check(ps.import_proof(doc, fresh), fresh, Calculus.FOHC) == (True, None)
            monkeypatch.setattr(tm._Infer, "infer", infer)
        exponents = [math.log2(b / a) for a, b in zip(counts, counts[1:])]
        assert all(e <= 2.05 for e in exponents), (counts, exponents)

    def test_check_of_the_nat_chain_classifies_as_many_formulas_at_every_length(self, monkeypatch):
        # `check` classifies only the formulas that enter the proof: the
        # root goal, and the clause each DECIDE premise focuses, which the
        # program's parse classified. The top-level fragment walks on the
        # chain's proof at n = 20, 40 and 80: 1, 1 and 1, where checking
        # every node's goal and focus walked 61, 121 and 241
        walk, counts, depth = fm._calculi, [], [0]

        def counted(sig, ctx, f, role):
            counts[-1] += not depth[0]
            depth[0] += 1
            try:
                return walk(sig, ctx, f, role)
            finally:
                depth[0] -= 1

        for n in (20, 40, 80):
            program = ps.parse_program(self.NAT)
            goal = ps.parse_goal("nat " + "(s " * n + "0" + ")" * n, program)
            res = prove(program, None, goal, SearchConfig(calculus=Calculus.FOHC, depth_limit=5000))
            fresh = ps.parse_program(self.NAT)
            back = ps.import_proof(ps.export_proof(res.tree, program), fresh)
            counts.append(0)
            monkeypatch.setattr(fm, "_calculi", counted)
            assert check(back, fresh, Calculus.FOHC) == (True, None)
            monkeypatch.setattr(fm, "_calculi", walk)
        assert counts[0] == counts[1] == counts[2], counts


class TestRenderCostsAsCounts:
    """Renders pinned as absolute call counts, which a fixed atom or a fixed
    proof over a fixed program makes exact: one render memo unfolds each
    distinct fix-headed subterm once, and one audit renders each distinct
    atom once, through one grounding."""

    @staticmethod
    def counted(monkeypatch, targets=((tm, "fair_unfold"), (tm, "is_first_order_atom"), (tr, "snapshot"))):
        calls = collections.Counter()
        for module, name in targets:
            def run(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, run)
        return calls

    def test_a_render_unfolds_the_zero_stream_once(self, monkeypatch, fresh_program):
        # z_str unfolds to scons 0 z_str, the same subterm at every depth
        program = fresh_program("bitstream")
        atom = ps.parse_goal("bitstream z_str", program).term
        calls = self.counted(monkeypatch)
        assert tr.tree_to_text(tr.atom_to_tree(program.signature, atom, 6)) == (
            "bitstream(scons(0,scons(0,scons(0,scons(0,scons(*,*))))))")
        assert calls["fair_unfold"] <= 1

    def test_a_warm_audit_renders_each_atom_once(self, monkeypatch, regression_proofs, fresh_program):
        # the merge and the check read what the candidate rendered
        _program, _goal, calc, res = regression_proofs["bitstream"]
        program = fresh_program("bitstream")
        cold = sd.audit_proof(res.tree, program, 5, 3, calc)
        calls = self.counted(monkeypatch)
        warm = sd.audit_proof(res.tree, program, 5, 3, calc)
        assert warm.to_dict(program) == cold.to_dict(program) and warm.verified
        assert calls["fair_unfold"] <= 3, calls
        assert calls["is_first_order_atom"] <= 4, calls
        assert calls["snapshot"] <= 3, calls

    def test_a_candidate_with_no_eigenvariables_renders_each_atom_once(self, monkeypatch, regression_proofs, fresh_program):
        # member67's root has no eigenvariable, so every word up to the
        # budget gives the empty substitution: its two atoms, member 0
        # [0|nil] and eq 0 0, are rendered for the empty word alone
        _program, _goal, calc, res = regression_proofs["member67"]
        program = fresh_program("member67")
        calls = self.counted(monkeypatch, ((tr, "atom_to_tree"),))
        cand = sd.build_candidate(res.tree, program, 3, 3, calc)
        assert not cand.eigenvariables and cand.deltas
        assert len(cand.interpretation.atoms) == 2
        assert calls["atom_to_tree"] == 2, calls


class TestHeadMatchCostsAsCounts:
    """The model side's head matches pinned as calls of `engine.unify` and
    `engine.unify_modulo` in one cold `gfp_approx` on a fresh program:
    closed, fix-free atoms are matched one way, with neither."""

    def test_a_fix_free_program_makes_no_unify_call(self, monkeypatch, fresh_program):
        program = fresh_program("comember")
        calls = TestRenderCostsAsCounts.counted(monkeypatch, ((eng, "unify"), (eng, "unify_modulo")))
        assert tr.gfp_approx(program, 2, tr.InstanceConfig()).atoms
        assert calls["unify"] == calls["unify_modulo"] == 0, calls

    def test_guarded_atoms_keep_unify_modulo(self, monkeypatch, fresh_program):
        program = fresh_program("bitstream")
        calls = TestRenderCostsAsCounts.counted(monkeypatch, ((eng, "unify"), (eng, "unify_modulo")))
        assert tr.gfp_approx(program, 2, tr.InstanceConfig()).atoms
        assert calls["unify_modulo"] > 0 and calls["unify"] > 0, calls


class TestSearchWitnesses:
    """Search instantiates quantifiers through metavariables bound by
    unification; the reified proof carries the resulting witnesses."""

    def test_bitstream_witnesses_come_from_unification(self, regression_proofs):
        _prog, _goal, _calc, res = regression_proofs["bitstream"]
        witnesses = [n.witness for n in res.tree.nodes() if n.witness is not None]
        assert any(tm.alpha_eq(t, C("0")) for t in witnesses)
        assert any(tm.alpha_eq(t, A(N_STR, C("0"))) for t in witnesses)

    def test_first_order_proofs_carry_no_fix_witness(self, regression_proofs):
        for name in ("member67", "comember"):
            _prog, _goal, calc, res = regression_proofs[name]
            assert not calc.higher_order
            witnesses = [n.witness for n in res.tree.nodes() if n.witness is not None]
            assert witnesses, name
            assert all(not tm.has_fix(t) for t in witnesses), name

    def test_from_hypothesis_witness_is_successor(self, regression_proofs):
        _prog, goal, _calc, res = regression_proofs["from"]
        eigen = res.tree.children[0].eigen
        # the universal step that opens the focus on the coinductive hypothesis
        uses = [
            n for n in res.tree.nodes()
            if n.rule == "forall-l" and fm.formula_alpha_eq(n.sequent.focus, goal)
        ]
        assert [n.witness for n in uses] == [A(C("s"), C(eigen))]

    @pytest.mark.parametrize("calc", list(Calculus), ids=lambda c: c.value)
    def test_a_dangling_witness_takes_the_type_of_the_binder_that_drew_it(self, calc):
        # over `const 0 : i.` no closed term has type i -> i, so there is no
        # proof; were the witness of `f` taken to be of type i, 0 would fill
        # it and prove it
        fn_goal = Exists("f", fn_type(IOTA, IOTA), TOP)
        cfg = SearchConfig(calculus=calc)
        assert prove(ps.parse_program("const 0 : i."), None, fn_goal, cfg).reason == "no-proof"
        # with s : i -> i the constant s fills it, a witness that only the
        # higher-order calculi take
        program = ps.parse_program("const 0 : i. const s : i -> i.")
        res = prove(program, None, fn_goal, cfg)
        if calc.higher_order:
            assert res.proved and res.tree.witness == C("s")
        else:
            assert res.reason == "no-proof"
        res = prove(program, None, Exists("x", IOTA, TOP), cfg)
        assert res.proved and res.tree.witness == C("0")

    def test_a_proof_names_its_eigenvariables_by_itself(self):
        # the left disjunct draws z's witness before it fails; the proof's
        # first node that draws a name is its forall-r, so that is `x#1`
        # (plain iterative deepening's own numbering named it `x#2`)
        program = ps.parse_program("const a : i. const p : i -> o. const q : i -> o. p X.")
        goal = ps.parse_goal("(exists z. q z) \\/ (forall x. p x)", program)
        res = prove(program, None, goal, SearchConfig(calculus=Calculus.FOHH))
        assert [(n.rule, n.eigen, n.witness) for n in res.tree.nodes()] == [
            ("or-r", None, None), ("forall-r", "x#1", None), ("decide", None, None),
            ("forall-l", None, C("x#1")), ("initial", None, None)]
        assert check(res.tree, program, Calculus.FOHH) == (True, None)

    @pytest.mark.parametrize("calc", [Calculus.FOHH, Calculus.HOHH], ids=lambda c: c.value)
    def test_a_witness_never_names_an_eigenvariable_drawn_below_it(self, calc):
        # `p X X` unifies z's witness with the eigenvariable of the forall-r
        # under it, which `check` refuses: no proof. With the quantifiers
        # the other way round the witness is the eigenvariable above it
        program = ps.parse_program("const a : i. const p : i -> i -> o. p X X.")
        cfg = SearchConfig(calculus=calc)
        escaping = prove(program, None, ps.parse_goal("exists z. forall x. p z x", program), cfg)
        assert escaping.reason == "no-proof"
        res = prove(program, None, ps.parse_goal("forall x. exists z. p z x", program), cfg)
        assert [n.witness for n in res.tree.nodes() if n.witness] == [C("x#1"), C("x#1")]
        assert res.tree.size() == 5 and check(res.tree, program, calc) == (True, None)


class TestPromoteLemma:
    def test_corrupted_proof_rejected(self, regression_proofs):
        prog, goal, _calc, res = regression_proofs["bitstream"]

        def corrupt(node):
            if node.rule == "forall-l<>" and node.witness is not None:
                return eng.ProofTree(node.sequent, node.rule, C("1"), node.eigen, node.children)
            return eng.ProofTree(
                node.sequent, node.rule, node.witness, node.eigen, tuple(corrupt(c) for c in node.children)
            )

        lemma = HClause((), (), goal.term)
        with pytest.raises(ProofInvalid):
            promote_lemma(prog, lemma, corrupt(res.tree), LemmaStore())

    def test_mismatched_lemma_rejected(self, regression_proofs):
        prog, _goal, _calc, res = regression_proofs["bitstream"]
        other = HClause((), (), A(C("bit"), C("0")))
        with pytest.raises(ProofInvalid):
            promote_lemma(prog, other, res.tree, LemmaStore())

    def test_lemma_is_not_original(self, regression_proofs):
        # a promoted lemma may be decided on, but never under the guard
        prog, goal, calc, res = regression_proofs["bitstream"]
        store = promote_lemma(prog, HClause((), (), goal.term), res.tree, LemmaStore())
        entries = eng.base_entries(prog, store)
        assert [e.src for e in entries].count(Src.LEMMA) == 1


class TestSearchStats:
    def test_stats_reported(self, regression_proofs):
        for _name, (_prog, _g, _calc, res) in regression_proofs.items():
            assert res.stats.nodes > 0
            assert res.stats.max_depth >= 1

    def test_depth_limit_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(calculus=Calculus.FOHC, depth_limit=0)


class TestFocusHeads:
    """`focus_reach`, the heads a left focus reaches and the length of each
    chain to them, and the DECIDE skip it drives: a focus whose chains to the
    goal's predicate are all longer than the depth left is neither searched
    nor counted, and asks for the depth its shortest such chain needs, if it
    has one."""

    SIG = Signature.of({"a": IOTA, "p": fn_type(IOTA, tm.O), "q": fn_type(IOTA, tm.O),
                        "r": fn_type(IOTA, tm.O)})

    @staticmethod
    def atom(pred, arg="a"):
        return Atom(A(C(pred), C(arg) if arg == "a" else V(arg)))

    def ctx(self):
        return eng._Ctx(SearchConfig(calculus=Calculus.FOHH), tm.NameSupply(), eng.SearchStats())

    def test_a_conjunction_gives_the_union_of_its_sides(self):
        # each predicate's count is one more than its shorter side's
        inner = Forall("y", IOTA, Conj(self.atom("r", "y"), self.atom("q")))
        assert fm.focus_reach(inner) == {"r": 3, "q": 3}
        f = Forall("x", IOTA, Impl(self.atom("p", "x"), Conj(self.atom("q", "x"), inner)))
        assert fm.focus_reach(f) == {"q": 4, "r": 6}
        assert fm.focus_reach(Conj(inner, self.atom("r"))) == {"q": 4, "r": 2}
        # an implication's antecedent is a goal, never a focus
        assert fm.focus_reach(Impl(self.atom("p"), self.atom("q"))) == {"q": 2}

    @pytest.mark.parametrize("focus", [TOP, Disj(Atom(A(C("p"), C("a"))), Atom(A(C("p"), C("a")))),
                                       Exists("x", IOTA, Atom(A(C("p"), V("x"))))],
                             ids=["top", "or", "exists"])
    def test_a_focus_with_no_left_rule_reaches_no_atom_and_counts_one_node(self, focus):
        assert fm.focus_reach(focus) == {}
        assert fm.focus_reach(Forall("x", IOTA, Impl(self.atom("q"), focus))) == {}
        seq = eng.Sequent(self.SIG, (), focus, self.atom("p"))
        assert eng._rule(seq) is None
        ctx = self.ctx()
        assert list(eng._solve(ctx, seq, 3, {})) == []
        assert (ctx.stats.nodes, ctx.need, ctx.supply._next) == (1, eng._NEVER, 0)

    @pytest.mark.parametrize("head", [V("P"), V(tm.META + "P#1"), tm.Lam("y", A(C("p"), V("y")))],
                             ids=["variable", "metavariable", "redex"])
    def test_a_head_that_is_not_a_constant_is_not_rigid(self, head):
        loose = Atom(A(head, C("a")))
        assert fm.focus_reach(loose) == {None: 1}
        assert fm.focus_reach(Conj(self.atom("q"), loose)) == {"q": 2, None: 2}
        assert fm.focus_reach(Forall("P", fn_type(IOTA, tm.O), Impl(self.atom("q"), loose))) == {None: 3}

    def test_a_hypothesis_headed_by_a_metavariable_is_never_skipped(self):
        # imp-r adds `?P#1 a`; DECIDE on it closes `p a` by binding ?P#1
        meta = tm.META + "P#1"
        hyp = Atom(A(V(meta), C("a")))
        seq = eng.Sequent(self.SIG, (), None, Impl(hyp, self.atom("p")))
        tree, s = next(eng._solve(self.ctx(), seq, 3, {}))
        assert rules_of(tree) == ["imp-r", "decide", "initial"]
        assert tree.children[0].sequent.entries == (eng.Entry(hyp, Src.HYPOTHESIS),)
        assert s == {meta: C("p")}

    @pytest.mark.parametrize("depth", range(8))
    def test_the_count_of_a_dead_focus_is_that_of_its_search(self, depth):
        # nested universals, implications and conjunctions against a goal
        # none of whose heads is reachable: entered as a focus, the chain is
        # searched and counted node by node until the depth runs out, which
        # asks for one level more; at a DECIDE it is skipped, and only the
        # DECIDE counts, asking for no deeper bound
        f = Forall("x", IOTA, Impl(self.atom("p", "x"), Conj(
            Forall("y", IOTA, self.atom("q", "y")),
            Impl(self.atom("p", "x"), Forall("z", IOTA, Conj(self.atom("r", "z"), self.atom("q", "x")))))))
        assert fm.focus_reach(f) == {"q": 5, "r": 7}
        focused, decided = self.ctx(), self.ctx()
        assert list(eng._solve(focused, eng.Sequent(self.SIG, (), f, self.atom("p")), depth, {})) == []
        assert (focused.stats.nodes, focused.need, focused.supply._next) == (
            [0, 1, 2, 3, 5, 7, 8, 10][depth], 1 if depth < 7 else eng._NEVER, [0, 1, 1, 1, 2, 3, 3, 3][depth])
        seq = eng.Sequent(self.SIG, (eng.Entry(f, Src.ORIGINAL),), None, self.atom("p"))
        assert list(eng._solve(decided, seq, depth + 1, {})) == []
        assert (decided.stats.nodes, decided.need, decided.supply._next) == (1, eng._NEVER, 0)

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_a_decide_skips_a_chain_longer_than_the_depth_left_and_sets_the_cut(self, depth):
        # the one chain to `p` takes 4 sequents: forall-l, imp-l, and-l and
        # INITIAL. Entered as a focus with fewer left, it finds nothing and
        # runs out of depth, asking for one level more; at a DECIDE it is
        # skipped, only the DECIDE counts, and it asks for the bound at which
        # the chain first fits, 5 - depth levels deeper
        f = Forall("x", IOTA, Impl(TOP, Conj(self.atom("q"), self.atom("p", "x"))))
        assert fm.focus_reach(f) == {"q": 4, "p": 4}
        focused, decided = self.ctx(), self.ctx()
        found = list(eng._solve(focused, eng.Sequent(self.SIG, (), f, self.atom("p")), depth - 1, {}))
        seq = eng.Sequent(self.SIG, (eng.Entry(f, Src.ORIGINAL),), None, self.atom("p"))
        trees = [rules_of(t) for t, _s in eng._solve(decided, seq, depth, {})]
        if depth <= 4:
            assert (found, focused.need) == ([], 1)
            assert (trees, decided.stats.nodes, decided.need, decided.supply._next) == ([], 1, 5 - depth, 0)
        else:
            assert trees == [["decide", "forall-l", "imp-l", "and-l", "initial", "top-r"]]
            assert (decided.stats.nodes, decided.need) == (1 + focused.stats.nodes, focused.need) == (
                1 + focused.stats.nodes, eng._NEVER)

    def test_a_skipped_chain_draws_no_names(self, monkeypatch):
        # at the bound that proves `p`, the four-∀ clause is too long for
        # the depth left: skipped, it draws none of the names its forall-l
        # steps would draw. With every chain one sequent long it is walked
        # and draws them; the proof is the same, found at the same bound,
        # and its eigenvariable is `x#1` either way, since reification names
        # by the proof alone
        prog = ps.parse_program("const a : i. const q : i -> o. const r : i -> o. const p : o.\n"
                                "p :- r X, r Y, r Z, r W.\np.\n")
        goal = ps.parse_goal("p /\\ (forall x. q x => q x)", prog)
        cfg = SearchConfig(calculus=Calculus.FOHH)
        skipped = prove(prog, LemmaStore(), goal, cfg)
        monkeypatch.setattr(eng, "focus_reach", lambda f: dict.fromkeys(fm.focus_reach(f), 1))
        walked = prove(prog, LemmaStore(), goal, cfg)
        assert rules_of(skipped.tree) == rules_of(walked.tree)
        assert skipped.stats.max_depth == walked.stats.max_depth == 5
        assert (skipped.stats.nodes, walked.stats.nodes) == (21, 27)
        assert [[n.eigen for n in res.tree.nodes() if n.eigen] for res in (skipped, walked)] == [["x#1"], ["x#1"]]

    def test_a_decide_skips_each_entry_whose_heads_miss_the_goal(self, monkeypatch, member67_program):
        # at `member` goals the `eq` clause, at `eq` goals the `member` clause
        # and the coinductive hypothesis (no chain), and each entry whose
        # chains are longer than the depth left (a chain); the node count is
        # SEARCH_GOLDEN's. The goal's predicate and the depth are read from
        # the DECIDE that asks.
        skipped = collections.Counter()

        def reach(f):
            out = fm.focus_reach(f)
            decide = sys._getframe(1).f_locals
            n = min(out.get(decide["pred"], eng._NEVER), out.get(None, eng._NEVER))
            if n >= decide["depth"]:
                skipped.update([(ps.pp_formula(f), n < eng._NEVER)])
            return out

        monkeypatch.setattr(eng, "focus_reach", reach)
        res = coprove(member67_program, ps.parse_goal("member 0 [0|nil]", member67_program),
                      SearchConfig(calculus=Calculus.FOHC))
        assert res.proved and res.stats.nodes == TestCoproveRegressions.SEARCH_GOLDEN["member67"][0]
        member = "forall X Y T. member X [Y|T] /\\ eq X Y => member X [Y|T]"
        assert skipped == {("forall X. eq X X", False): 7, ("member 0 [0|nil]", False): 1, (member, False): 2,
                           ("forall X. eq X X", True): 1, ("member 0 [0|nil]", True): 1, (member, True): 4}
