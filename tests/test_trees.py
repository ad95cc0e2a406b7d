from fractions import Fraction
from pathlib import Path

import pytest

from cup import parser as ps
from cup import terms as tm
from cup import trees as tr
from cup.errors import DepthUnreachable, NotFirstOrder, UniverseTooLarge
from cup.trees import (
    IN_APPROX,
    CERTAINLY_OUT,
    InstanceConfig,
    Interpretation,
    STAR_LEAF,
    Tree,
    atom_to_tree,
    distance,
    export_interpretation,
    gfp_approx,
    leaf,
    member_of_model,
    t_operator,
    term_to_tree,
    truncate,
)

from helpers import (
    A, C, FR_STR, STREAM_SIG, Z_STR, check_arities, import_interpretation, positions, scons, slist, tree_from_text,
    tree_substitute,
)


class TestTermToTree:
    def test_position_map(self):
        t = term_to_tree(STREAM_SIG, scons(C("0"), C("nil")))
        assert dict(positions(t)) == {(): "scons", (0,): "0", (1,): "nil"}

    def test_single_node(self):
        assert term_to_tree(STREAM_SIG, C("0")) == leaf("0")

    def test_atom_with_two_subtrees(self):
        t = term_to_tree(STREAM_SIG, A(C("member"), C("0"), slist(C("0"), C("nil"))))
        assert t.label == "member" and len(t.children) == 2
        assert t.children[1] == Tree("scons", (leaf("0"), leaf("nil")))

    def test_arity_discipline(self):
        t = term_to_tree(STREAM_SIG, A(C("member"), C("0"), slist(C("0"), C("nil"))))
        assert check_arities(STREAM_SIG, t)

    def test_fix_rejected(self):
        with pytest.raises(NotFirstOrder):
            term_to_tree(STREAM_SIG, Z_STR)


class TestGuardedAtomToTree:
    def test_zero_stream_depth_three(self):
        out = atom_to_tree(STREAM_SIG, A(C("bitstream"), Z_STR), 3)
        assert out == tree_from_text("bitstream(scons(0,scons(*,*)))")

    def test_first_order_atom_is_exact(self):
        atom = A(C("member"), C("0"), slist(C("0"), C("nil")))
        for depth in (3, 5, 9):
            out = atom_to_tree(STREAM_SIG, atom, depth)
            assert out == term_to_tree(STREAM_SIG, atom)
            assert all(label != tr.STAR for _pos, label in positions(out))

    def test_from_depth_three(self):
        out = atom_to_tree(STREAM_SIG, A(C("from"), C("0"), A(FR_STR, C("0"))), 3)
        assert out == tree_from_text("from(0,scons(0,scons(*,*)))")
        # the depth-4 rendering pins the successor element
        out4 = atom_to_tree(STREAM_SIG, A(C("from"), C("0"), A(FR_STR, C("0"))), 4)
        assert out4 == tree_from_text("from(0,scons(0,scons(s(*),scons(*,*))))")

    def test_budget_exhaustion(self, monkeypatch):
        # an unfolding that exposes no constructor head cannot be rendered
        monkeypatch.setattr(tm, "fair_unfold", lambda t: t)
        with pytest.raises(DepthUnreachable):
            atom_to_tree(STREAM_SIG, A(C("bitstream"), Z_STR), depth=6)


class TestTruncateDistance:
    def test_truncate_to_root(self):
        t = term_to_tree(STREAM_SIG, scons(C("0"), C("nil")))
        assert truncate(t, 0) == STAR_LEAF

    def test_identity_distance(self):
        t = term_to_tree(STREAM_SIG, scons(C("0"), C("nil")))
        assert distance(t, t) == 0

    def test_first_difference_at_depth(self):
        deep = atom_to_tree(STREAM_SIG, A(C("bitstream"), Z_STR), 4)
        shallow = atom_to_tree(STREAM_SIG, A(C("bitstream"), Z_STR), 2)
        # both depth-2 truncations agree (all depth-2 positions are cut);
        # the first disagreement appears when truncating at 3
        assert distance(deep, shallow) == Fraction(1, 2**3)
        assert truncate(deep, 2) == shallow

    def test_shallower_finite_tree_kept_exact(self):
        t = term_to_tree(STREAM_SIG, A(C("bit"), C("0")))
        assert truncate(t, 5) == t


class TestTreeSubstitute:
    """The grafting step of the tree-level reference substitution in `helpers`."""

    def _open_stream(self, n):
        # the open infinite tree with scons spine and variable leftmost leaves
        out = STAR_LEAF
        for _ in range(n):
            out = Tree("scons", (leaf("x"), out))
        return out

    def test_graft_closes_the_tree(self):
        t = self._open_stream(4)
        out = tree_substitute(t, "x", leaf("0"))
        assert all(label != "x" for _pos, label in positions(out))
        expected = STAR_LEAF
        for _ in range(4):
            expected = Tree("scons", (leaf("0"), expected))
        assert out == expected

    def test_absent_variable(self):
        t = self._open_stream(3)
        assert tree_substitute(t, "y", leaf("0")) == t

    def test_domain_growth(self):
        t = Tree("scons", (leaf("x"), leaf("x")))
        graft = Tree("s", (leaf("0"),))
        out = tree_substitute(t, "x", graft)
        n_positions = sum(1 for _ in positions(out))
        # two occurrences replaced by a 2-node tree: 3 - 2 + 2*2
        assert n_positions == 3 - 2 + 2 * 2


class TestTOperator:
    def test_propositional_steps(self):
        prog = ps.parse_program("const p : o. const q : o.\nq.\np :- q.")
        empty = Interpretation(1, frozenset())
        step1 = t_operator(prog, empty, InstanceConfig())
        assert step1.atoms == {leaf("q")}
        step2 = t_operator(prog, step1, InstanceConfig())
        assert step2.atoms == {leaf("q"), leaf("p")}

    def test_empty_program(self):
        prog = ps.parse_program("const p : o.")
        full = Interpretation(1, frozenset({leaf("p")}))
        assert t_operator(prog, full, InstanceConfig()).atoms == frozenset()

    def test_monotone_on_example(self):
        prog = ps.parse_program("const p : o. const q : o. const r : o.\np :- q.\nq :- r.\nr.")
        small = Interpretation(1, frozenset({leaf("r")}))
        large = Interpretation(1, frozenset({leaf("r"), leaf("q")}))
        assert t_operator(prog, small, InstanceConfig()).atoms <= t_operator(prog, large, InstanceConfig()).atoms

    def test_ranges_over_every_pool_tuple(self):
        # the pool at term size 2 is 0 and s 0
        prog = ps.parse_program("const 0 : i. const s : i -> i. const eq : i -> i -> o. const r : i -> i -> o.\n"
                                "eq X X.\nr X Y.")
        out = t_operator(prog, Interpretation(3, frozenset()), InstanceConfig(term_size=2))
        assert out.atoms == {tree_from_text(t) for t in ("eq(0,0)", "eq(s(0),s(0))", "r(0,0)", "r(0,s(0))",
                                                          "r(s(0),0)", "r(s(0),s(0))")}

    def test_the_pools_fixed_point_applications_reach_the_heads(self, bitstream_program):
        # the first-order terms of bitstream's pool at term size 2 are 0 and
        # 1, so only a fixed-point application, here n_str 1, makes a head
        # whose stream is two cells deep
        cfg = InstanceConfig(term_size=2)
        approx = gfp_approx(bitstream_program, 4, cfg)
        head = atom_to_tree(bitstream_program.signature,
                            ps.parse_goal("bitstream [0|n_str 1]", bitstream_program).term, 4)
        assert head == tree_from_text("bitstream(scons(0,scons(1,scons(*,*))))")
        assert head in t_operator(bitstream_program, approx, cfg).atoms


class TestGfpApprox:
    def test_self_supporting_survives(self):
        prog = ps.parse_program("const p : o. const q : o.\np :- p.\nq.")
        out = gfp_approx(prog, 1, InstanceConfig())
        assert out.atoms == {leaf("p"), leaf("q")}

    def test_unsupported_chain_collapses(self):
        prog = ps.parse_program("const p : o. const q : o.\nq :- p.")
        out = gfp_approx(prog, 1, InstanceConfig())
        assert out.atoms == frozenset()

    def test_bit_facts_are_fixed(self):
        prog = ps.parse_program("const 0 : i. const 1 : i. const bit : i -> o.\nbit 0.\nbit 1.")
        out = gfp_approx(prog, 2, InstanceConfig())
        assert out.atoms == {Tree("bit", (leaf("0"),)), Tree("bit", (leaf("1"),))}

    def test_fixed_point_property(self, bitstream_program):
        cfg = InstanceConfig(term_size=2)
        out = gfp_approx(bitstream_program, 3, cfg)
        again = t_operator(bitstream_program, out, cfg)
        # the paper's I <= T(I), through t_operator
        assert out.atoms <= again.atoms
        # every member re-derives itself from members at this resolution
        from cup.soundness import verify_postfixed

        ok, cex = verify_postfixed(out, bitstream_program, cfg)
        assert ok, cex

    def test_antitone_in_depth(self, bitstream_program):
        cfg = InstanceConfig(term_size=2)
        deep = gfp_approx(bitstream_program, 4, cfg)
        shallow = gfp_approx(bitstream_program, 3, cfg)
        assert {truncate(t, 3) for t in deep.atoms} <= shallow.atoms

    def test_justify_refuses_a_grounding_at_another_depth(self, member_program):
        atom = ps.parse_goal("member 0 [0|nil]", member_program).term
        g = tr.grounding(member_program, InstanceConfig(), 2)
        with pytest.raises(ValueError, match="depth 2 cannot justify at depth 3"):
            tr.justify(atom, Interpretation(3, frozenset()), g)
        # the fact member X [X|T] justifies it with an empty body
        assert tr.justify(atom, Interpretation(2, frozenset()), g) == []

    def test_universe_cap(self, fresh_program, monkeypatch):
        monkeypatch.setattr(tr, "MAX_ATOMS", 3)
        with pytest.raises(UniverseTooLarge):
            gfp_approx(fresh_program("bitstream"), 4, InstanceConfig(term_size=3))


class TestMemberOfModel:
    def test_zero_stream_in_model(self, bitstream_program):
        atom = ps.parse_goal("bitstream z_str", bitstream_program).term
        approx = gfp_approx(bitstream_program, 4, InstanceConfig(term_size=2, seed_atoms=(atom,)))
        assert member_of_model(atom, approx, bitstream_program.signature) == IN_APPROX

    def test_non_bit_stream_out(self):
        text = open("src/cup/corpus/bitstream.cup").read() + "const s2 : i -> i.\n"
        prog = ps.parse_program(text)
        atom = ps.parse_goal("bitstream (fix \\x. scons (s2 0) x)", prog).term
        approx = gfp_approx(prog, 4, InstanceConfig(term_size=2, seed_atoms=(atom,)))
        assert member_of_model(atom, approx, prog.signature) == CERTAINLY_OUT

    def test_trivial_fact(self, bitstream_program):
        atom = ps.parse_goal("bit 0", bitstream_program).term
        approx = gfp_approx(bitstream_program, 2, InstanceConfig(term_size=1))
        assert member_of_model(atom, approx, bitstream_program.signature) == IN_APPROX


CORPUS = Path(__file__).parent.parent / "src" / "cup" / "corpus"
BITSTREAM_S = (CORPUS / "bitstream.cup").read_text() + "const s : i -> i.\n"
# ROADMAP item 21's Baseline atoms, each with its program's text and its
# rank, None where finite failure finds none: the first four are false,
# `t 0` holds through a witness outside the term pool, the rest hold too
BASELINE_RANKS = [
    ((CORPUS / "member.cup").read_text(), "member 1 [0|nil]", 2),
    (BITSTREAM_S, "bitstream (fix \\x. scons (s 0) x)", 2),
    (BITSTREAM_S, "bitstream [0|[1|[s 0|z_str]]]", 4),
    ("const 0 : i. const s : i -> i. const p : i -> o. const q : i -> o.\np X :- p (s X), q X.\n", "p 0", 2),
    ("const 0 : i. const s : i -> i. const q : i -> o. const t : i -> o.\nq (s (s (s (s 0)))).\nt 0 :- q X.\n",
     "t 0", None),
    ((CORPUS / "from.cup").read_text(), "from 0 (fr_str 0)", None),
    ((CORPUS / "bitstream.cup").read_text(), "bitstream z_str", None),
    ((CORPUS / "bitstream.cup").read_text(), "bitstream [0|[1|z_str]]", None),
    ((CORPUS / "member.cup").read_text(), "member 0 [1|1|0|nil]", None),
]


class TestRefute:
    """Finite-failure ranks: rank 1 for a complete atom with no clause
    instance, r for one each of whose instances has a body atom below r."""

    @pytest.mark.parametrize("text, goal, rank", BASELINE_RANKS, ids=[row[1] for row in BASELINE_RANKS])
    def test_a_baseline_atom_gets_its_rank(self, text, goal, rank):
        program = ps.parse_program(text)
        assert tr.refute(program, ps.parse_goal(goal, program).term) == rank

    def test_an_open_body_only_variable_blocks_a_rank(self):
        # `t 0` is false here, since no clause has a q head, and each q
        # atom has rank 1; but the instance's X is not fixed by the head,
        # so the argument cannot see every ground instance of the clause
        prog = ps.parse_program("const 0 : i. const q : i -> o. const t : i -> o.\nt 0 :- q X.\n")
        assert tr.refute(prog, ps.parse_goal("q 0", prog).term) == 1
        assert tr.refute(prog, ps.parse_goal("t 0", prog).term) is None

    @pytest.mark.parametrize("zeros, rank", [(2, 2), (10, None)])
    def test_a_match_that_the_bound_ends_blocks_a_rank(self, zeros, rank):
        # the head needs the stream unfolded once per leading 0: within the
        # unfolding bound the match binds X and `q X` fails, past it the
        # walk answers Unknown and the atom is incomplete
        head = "[0|" * zeros + "X" + "]" * zeros
        text = f"const p : i -> o. const q : i -> o.\np {head} :- q X.\n"
        prog = ps.parse_program((CORPUS / "bitstream.cup").read_text() + text)
        atom = ps.parse_goal("p z_str", prog).term
        assert (tr._instances(atom, tr._clauses_with_metas(prog.h_clauses())) is None) == (rank is None)
        assert tr.refute(prog, atom) == rank


class TestInterpretationListing:
    def test_round_trip(self, bitstream_program):
        out = gfp_approx(bitstream_program, 3, InstanceConfig(term_size=2))
        text = export_interpretation(out)
        back = import_interpretation(text)
        assert back.depth == out.depth and back.atoms == out.atoms

    def test_sorted_listing(self, bitstream_program):
        out = gfp_approx(bitstream_program, 3, InstanceConfig(term_size=2))
        lines = export_interpretation(out).splitlines()[1:]
        assert lines == sorted(lines)
        assert any("*" in ln for ln in lines)
