"""Differential tests of the kernel's cached facts, the lazy
`unify_modulo` and the render memo of `gfp_approx` against straightforward
reference code kept here.

The term checks replay the seeded generator stream of the beta
type-preservation property (seed 102), so they run on cases that suite
already draws and leave the 10,000-case property budget unchanged.
"""

import collections
import random

import pytest

from cup import engine as eng
from cup import parser as ps
from cup import soundness as sd
from cup import terms as tm
from cup import trees as tr
from cup.errors import CupError, TypeMismatch
from cup.formulas import Calculus
from cup.terms import IOTA, Con, Fix, Lam, Signature, Var

from helpers import GEN_SIG, N_STR, Z_STR, C, V, A, gen_term, slist
from test_properties import CASES


def replayed_terms():
    """The terms TestTypePreservation.test_beta draws, with their normal
    forms and one fair unfolding of those that contain a fix."""
    rng = random.Random(102)
    out = []
    for _ in range(CASES["type_preservation"] // 3):
        ty = rng.choice([IOTA, tm.fn_type(IOTA, IOTA)])
        t = gen_term(rng, ty, {}, rng.randint(0, 4))
        nf = tm.beta_normalize(t)
        out += [(t, ty), (nf, ty)]
        if tm.has_fix(nf):
            out.append((tm.fair_unfold(nf), ty))
    return out


# ---------------------------------------------------------------------------
# has_fix
# ---------------------------------------------------------------------------


def test_has_fix_matches_subterm_scan():
    for t, _ty in replayed_terms():
        assert tm.has_fix(t) == any(isinstance(u, Fix) for u in tm.subterms(t)), t


def test_cached_hash_is_structural():
    for t, _ty in replayed_terms()[:300]:
        rebuilt = _rebuild(t)
        assert rebuilt == t and rebuilt is not t
        assert hash(rebuilt) == hash(t)
        assert repr(rebuilt) == repr(t)


def _rebuild(t):
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Con):
        return Con(t.name)
    if isinstance(t, tm.App):
        return tm.App(_rebuild(t.fn), _rebuild(t.arg))
    if isinstance(t, Lam):
        return Lam(t.var, _rebuild(t.body))
    return Fix(_rebuild(t.body))


# ---------------------------------------------------------------------------
# is_first_order
# ---------------------------------------------------------------------------


def first_order_reference(sig, t, expected):
    """Uncached verdict, or the type of the error it raises."""
    try:
        return tm.first_order_report(sig, {}, t, expected).verdict
    except TypeMismatch:
        return False
    except CupError as exc:
        return type(exc)


def first_order_memoised(sig, t, expected):
    try:
        return tm.is_first_order(sig, {}, t, expected)
    except CupError as exc:
        return type(exc)


def test_memoised_first_order_agrees_with_report():
    # a signature without s makes some generated terms raise UnboundConstant
    small = Signature.of({n: ty for n, ty in GEN_SIG.constants if n != "s"})
    extra = [(Fix(Lam("x", Var("x"))), None), (Var("y"), None), (Var("y"), IOTA),
             (Con("0"), IOTA), (Con("0"), tm.fn_type(IOTA, IOTA)), (Con("scons"), None)]
    raised = 0
    for sig in (Signature.of(GEN_SIG.as_dict()), small):
        for t, ty in replayed_terms() + extra:
            for expected in (None, ty):
                want = first_order_reference(sig, t, expected)
                raised += isinstance(want, type)
                # twice: the second call is answered from the memo, or
                # raises again when the first one raised
                assert first_order_memoised(sig, t, expected) == want, (t, expected)
                assert first_order_memoised(sig, t, expected) == want, (t, expected)
    assert raised > 0


# ---------------------------------------------------------------------------
# unify_modulo
# ---------------------------------------------------------------------------


def unify_modulo_reference(a, b, s, bound):
    """Build both unfolding chains, then try every pair in (i + j, i, j)
    order."""

    def chain(t):
        out = [tm.beta_normalize(t)]
        for _ in range(bound):
            if not any(isinstance(u, Fix) for u in tm.subterms(out[-1])):
                break
            out.append(tm.fair_unfold(out[-1]))
        return out

    va = chain(eng.resolve_term(a, s))
    vb = chain(eng.resolve_term(b, s))
    pairs = sorted(((i, j) for i in range(len(va)) for j in range(len(vb))), key=lambda ij: (ij[0] + ij[1], ij))
    for i, j in pairs:
        s1 = eng.unify(va[i], vb[j], s)
        if s1 is not None:
            return s1
    return None


def _recorded_calls(monkeypatch, run):
    calls = []
    real = eng.unify_modulo

    def record(a, b, s, bound):
        calls.append((a, b, dict(s), bound))
        return real(a, b, s, bound)

    with monkeypatch.context() as m:
        m.setattr(eng, "unify_modulo", record)
        run()
    return calls


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lazy_unify_modulo_matches_eager_at_the_bound(k):
    # a pattern k cells deep matches a stream only after k unfoldings
    pattern = A(C("bitstream"), slist(*[V(f"?x{i}") for i in range(k)], V("?tail")))
    for stream in (Z_STR, A(N_STR, C("1"))):
        atom = A(C("bitstream"), stream)
        for bound in (k - 1, k, k + 1):
            got = eng.unify_modulo(pattern, atom, {}, bound)
            assert got == unify_modulo_reference(pattern, atom, {}, bound), (k, bound)
            assert (got is not None) == (bound >= k), (k, bound)
            # and from the other side
            assert eng.unify_modulo(atom, pattern, {}, bound) == unify_modulo_reference(atom, pattern, {}, bound)


MODEL_CASES = [
    ("bitstream", "bitstream [0|1|n_str 0]", 3),
    ("from", "from (s 0) (fr_str (s 0))", 2),
    ("member", "member 0 [1|0|nil]", 3),
    ("comember", "comember_bit 0 [1|0|0]", 2),
]


@pytest.mark.parametrize("name,goal,depth", MODEL_CASES)
def test_lazy_unify_modulo_matches_eager_on_gfp_atoms(monkeypatch, name, goal, depth, request):
    program = request.getfixturevalue(f"{name}_program")
    atom = ps.parse_goal(goal, program).term
    cfg = tr.InstanceConfig(seed_atoms=(atom,))
    calls = _recorded_calls(monkeypatch, lambda: tr.gfp_approx(program, depth, cfg))
    assert calls
    heads = {a for a, _b, _s, _bound in calls}
    atoms = {b for _a, b, _s, _bound in calls}
    bound = calls[0][3]
    matched = 0
    # every corpus clause head against every atom gfp_approx tried to justify
    for head in heads:
        for a in atoms:
            got = eng.unify_modulo(head, a, {}, bound)
            assert got == unify_modulo_reference(head, a, {}, bound), (head, a)
            matched += got is not None
    assert matched > 0


@pytest.mark.parametrize("name,goal,calc", [
    ("bitstream", "bitstream [0|n_str 0]", Calculus.HOHC),
    ("from", "forall x. from x (fr_str x)", Calculus.HOHH),
])
def test_lazy_unify_modulo_matches_eager_in_search(monkeypatch, name, goal, calc, request):
    # search passes partial substitutions, which the model side never does
    program = request.getfixturevalue(f"{name}_program")
    g = ps.parse_goal(goal, program)
    calls = _recorded_calls(monkeypatch, lambda: eng.coprove(program, g, eng.SearchConfig(calculus=calc)))
    assert any(s for _a, _b, s, _bound in calls)
    for a, b, s, bound in calls:
        assert eng.unify_modulo(a, b, s, bound) == unify_modulo_reference(a, b, s, bound), (a, b, s)


# ---------------------------------------------------------------------------
# gfp_approx
# ---------------------------------------------------------------------------


def test_cached_tree_hash_is_structural(bitstream_program, member_program):
    # the value the dataclass-generated hash gives, so set orders stay put
    def nodes(t):
        yield t
        for c in t.children:
            yield from nodes(c)

    trees = set()
    for program in (bitstream_program, member_program):
        trees |= tr.gfp_approx(program, 4, tr.InstanceConfig()).atoms
    assert trees
    for t in trees:
        rebuilt = tr.tree_from_text(tr.tree_to_text(t))
        assert rebuilt == t and hash(rebuilt) == hash(t) and repr(rebuilt) == repr(t)
        assert all(hash(u) == hash((u.label, u.children)) for u in nodes(t))


def gfp_approx_reference(program, depth, cfg):
    """The loop without a render memo: an atom is rendered again on every
    visit, and a representative is skipped only after an alpha_eq scan."""
    sig = program.signature
    g = tr.grounding(program, cfg, depth)
    nodes, reps_seen, derived_count, expansions = {}, {}, {}, {}
    work = [(a, True) for a in tr._seed_atoms(program, cfg, sig)]
    while work:
        a, is_seed = work.pop()
        key = tr._render_body(sig, a, depth, cfg.unfold_bound)
        if key is None:
            continue
        reps_here = reps_seen.setdefault(key, [])
        if any(tm.alpha_eq(a, r) for r in reps_here):
            continue
        if not is_seed and derived_count.get(key, 0) >= 4:
            continue
        if key not in nodes:
            nodes[key] = a
            expansions[key] = []
        reps_here.append(a)
        if not is_seed:
            derived_count[key] = derived_count.get(key, 0) + 1
        for body in tr.justifications(a, g):
            keys = []
            ok = True
            for b in body:
                k = tr._render_body(sig, b, depth, cfg.unfold_bound)
                if k is None:
                    ok = False
                    break
                keys.append(k)
                work.append((b, False))
            if ok:
                expansions[key].append(keys)
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for key in list(alive):
            if not any(all(k in alive for k in body) for body in expansions[key]):
                alive.discard(key)
                changed = True
    return alive, {k: nodes[k] for k in alive}, {k: tuple(reps_seen[k]) for k in alive}


GFP_SEEDS = [(name, goal) for name, goal, _depth in MODEL_CASES] + [("fibs", "fibs 0 0 [0|0]")]


@pytest.mark.parametrize("name,goal", GFP_SEEDS)
def test_memoised_gfp_approx_matches_reference(monkeypatch, name, goal, request):
    # the default InstanceConfig plus one seeded atom, as `cup model --goal`
    program = request.getfixturevalue(f"{name}_program")
    cfg = tr.InstanceConfig(seed_atoms=(ps.parse_goal(goal, program).term,))
    # justifications do not depend on the depth and are not under test here;
    # sharing them between both loops and all depths keeps fibs affordable
    bodies = {}
    real_justifications = tr.justifications

    def shared_justifications(atom, g):
        if atom not in bodies:
            bodies[atom] = list(real_justifications(atom, g))
        return iter(bodies[atom])

    rendered = []
    real_render = tr._render_body

    def counted_render(sig, atom, depth, bound):
        rendered.append(atom)
        return real_render(sig, atom, depth, bound)

    monkeypatch.setattr(tr, "justifications", shared_justifications)
    for depth in (2, 3, 4):
        expected = gfp_approx_reference(program, depth, cfg)
        rendered.clear()
        with monkeypatch.context() as m:
            m.setattr(tr, "_render_body", counted_render)
            got = tr.gfp_approx(program, depth, cfg)
        assert (set(got.atoms), got.reps, got.reps_all) == expected, (name, depth)
        # each distinct term is rendered at most once per call
        assert rendered and len(rendered) == len(set(rendered)), (name, depth)


def test_verify_postfixed_builds_its_pool_once(monkeypatch, regression_proofs):
    program, _goal, calc, res = regression_proofs["bitstream"]
    cfg = tr.InstanceConfig()
    cand = sd.build_candidate(res.tree, program, 2, 1, None, cfg, calc)
    merged = sd.merge_with_model(cand, program, cfg)
    calls = collections.Counter()

    def counted(name):
        real = getattr(tr, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in ("universe_terms", "justify"):
        monkeypatch.setattr(tr, name, counted(name))
    assert sd.verify_postfixed(merged, program, cfg) == (True, None)
    assert calls["justify"] > 1
    assert calls["universe_terms"] == 1
