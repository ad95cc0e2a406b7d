from fractions import Fraction

import pytest

from cup import guardedness as gd
from cup import terms as tm
from cup import trees as tr
from cup.errors import NotAnAtom, PreconditionViolated
from cup.terms import Con, DIAMOND, Fix

from helpers import A, C, FR_STR, L, N_STR, STREAM_SIG, V, Z_STR, diamond_min_depth, scons, slist


class TestGuardedFixedPoint:
    def test_zero_stream(self):
        assert gd.is_guarded_fixed_point(STREAM_SIG, Z_STR).verdict

    def test_successive_stream(self):
        assert gd.is_guarded_fixed_point(STREAM_SIG, FR_STR).verdict

    def test_constant_stream(self):
        assert gd.is_guarded_fixed_point(STREAM_SIG, N_STR).verdict

    def test_bare_self_reference(self):
        report = gd.is_guarded_fixed_point(STREAM_SIG, Fix(L("x", V("x"))))
        assert not report.verdict
        assert report.violations

    def test_two_self_calls(self):
        t = Fix(L("x", A(C("scons"), V("x"), V("x"))))
        # both arguments are self-calls: not the one-self-call shape
        assert not gd.is_guarded_fixed_point(STREAM_SIG, t).verdict

    def test_unused_parameter(self):
        # parameter n never occurs in the constructor arguments
        t = Fix(L("f", L("n", A(C("scons"), C("0"), A(V("f"), C("0"))))))
        report = gd.is_guarded_fixed_point(STREAM_SIG, t)
        assert not report.verdict
        assert any(code == 4 for code, _ in report.violations)

    def test_verdict_iff_no_violations(self):
        for t in (Z_STR, FR_STR, Fix(L("x", V("x")))):
            report = gd.is_guarded_fixed_point(STREAM_SIG, t)
            assert report.verdict == (not report.violations)


class TestGuardedFull:
    def test_first_order(self):
        assert gd.is_guarded_full(STREAM_SIG, A(C("s"), A(C("s"), C("0"))))

    def test_applied_fixed_point(self):
        assert gd.is_guarded_full(STREAM_SIG, A(FR_STR, A(C("s"), C("0"))))

    def test_normalization_then_first_order(self):
        t = tm.beta_normalize(A(L("x", V("x")), C("0")))
        assert gd.is_guarded_full(STREAM_SIG, t)

    def test_an_ambiguously_typed_fixed_point_is_not_guarded_full(self):
        # guarded, but y's type is fixed by nothing
        t = A(Fix(L("x", L("y", scons(C("0"), A(V("x"), V("y")))))), C("0"))
        assert not gd.is_guarded_full(STREAM_SIG, t)

    def test_partially_unfolded_needs_extension(self):
        t = scons(C("0"), A(N_STR, C("0")))
        assert not gd.is_guarded_full(STREAM_SIG, t)
        assert gd.is_guarded_full_ext(STREAM_SIG, t)


class TestGuardedAtom:
    def test_unfolded_stream_atom(self):
        assert gd.is_guarded_atom(STREAM_SIG, A(C("bitstream"), scons(C("0"), A(N_STR, C("0")))))

    def test_plain_first_order_atom(self):
        assert gd.is_guarded_atom(STREAM_SIG, A(C("member"), C("0"), slist(C("0"), C("nil"))))

    def test_unguarded_fix_argument(self):
        bad = Fix(L("x", V("x")))
        assert not gd.is_guarded_atom(STREAM_SIG, A(C("bit"), bad))

    def test_not_an_atom(self):
        with pytest.raises(NotAnAtom):
            gd.is_guarded_atom(STREAM_SIG, C("0"))


class TestSnapshot:
    def test_stream_argument_replaced(self):
        out = gd.snapshot(STREAM_SIG, A(C("bitstream"), A(N_STR, C("0"))))
        assert out == A(C("bitstream"), Con(DIAMOND))

    def test_first_order_atom_untouched(self):
        atom = A(C("member"), C("0"), slist(C("0"), C("nil")))
        assert gd.snapshot(STREAM_SIG, atom) == atom

    def test_inner_position_replaced(self):
        atom = A(C("from"), C("0"), scons(C("0"), A(FR_STR, A(C("s"), C("0")))))
        out = gd.snapshot(STREAM_SIG, atom)
        assert out == A(C("from"), C("0"), scons(C("0"), Con(DIAMOND)))

    def test_snapshot_is_first_order(self):
        sig_with_diamond = STREAM_SIG.extend(DIAMOND, tm.IOTA)
        for atom in (
            A(C("bitstream"), Z_STR),
            A(C("from"), C("0"), A(FR_STR, C("0"))),
            A(C("bitstream"), scons(C("0"), A(N_STR, C("0")))),
        ):
            t = atom
            for _ in range(6):
                snap = gd.snapshot(STREAM_SIG, t)
                assert tm.is_first_order_atom(sig_with_diamond, {}, snap)
                t = tm.fair_unfold(t)

    def test_non_snapshot_able(self):
        with pytest.raises(PreconditionViolated):
            gd.snapshot(STREAM_SIG, A(C("bit"), Fix(L("x", V("x")))))


class TestSnapshotConvergence:
    def test_consecutive_snapshots_approach_a_limit(self):
        # distances between consecutive snapshot trees shrink geometrically
        for atom in (
            A(C("bitstream"), Z_STR),
            A(C("bitstream"), A(N_STR, C("0"))),
            A(C("from"), C("0"), A(FR_STR, C("0"))),
        ):
            chain = [atom]
            for _ in range(17):
                chain.append(tm.fair_unfold(chain[-1]))
            dist = []
            for k in range(16):
                t1 = tr.term_to_tree(STREAM_SIG, gd.snapshot(STREAM_SIG, chain[k]))
                t2 = tr.term_to_tree(STREAM_SIG, gd.snapshot(STREAM_SIG, chain[k + 1]))
                dist.append(tr.distance(t1, t2))
            for k in range(1, 16):
                assert dist[k] <= dist[k - 1]
            assert dist[15] <= Fraction(1, 2**15)

    def test_schedule_independence(self):
        # one-step leftmost-outermost iteration and the all-positions round
        # render the same truncated trees for single-stream atoms
        for atom in (
            A(C("bitstream"), Z_STR),
            A(C("from"), C("0"), A(FR_STR, C("0"))),
        ):
            for depth in range(1, 6):
                via_fair = tr.atom_to_tree(STREAM_SIG, atom, depth)
                t = atom
                while True:
                    snap = gd.snapshot(STREAM_SIG, t)
                    tree = tr.term_to_tree(STREAM_SIG, snap)
                    dmin = diamond_min_depth(tree)
                    if dmin is None or dmin >= depth:
                        via_single = tr.truncate(tree, depth)
                        break
                    t = tm.fixbeta_unfold(t)
                assert via_fair == via_single


class TestTreeSharing:
    def test_equivalent_atoms_share_trees(self):
        pairs = [
            (A(C("bitstream"), scons(C("0"), A(N_STR, C("0")))), A(C("bitstream"), A(N_STR, C("0")))),
            (A(C("from"), C("0"), scons(C("0"), A(FR_STR, A(C("s"), C("0"))))), A(C("from"), C("0"), A(FR_STR, C("0")))),
        ]
        for a1, a2 in pairs:
            assert tm.fixbeta_equiv(a1, a2, 8) == tm.EQUAL
            for depth in range(1, 7):
                assert tr.atom_to_tree(STREAM_SIG, a1, depth) == tr.atom_to_tree(
                    STREAM_SIG, a2, depth
                )
