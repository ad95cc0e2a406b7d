"""Coinductive Herbrand machinery: tree-terms and tree-atoms as
finitely-branching position maps, the truncation metric, rendering of
guarded atoms into depth-truncated trees, the immediate consequence
operator, and a bounded approximation of its greatest fixed point.

Finite trees are stored explicitly; an infinite tree only ever exists as
the family of its depth truncations, with `*` leaves marking the cut.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from . import engine as eng
from . import formulas as fm
from . import terms as tm
from .errors import DepthUnreachable, NotFirstOrder, UniverseTooLarge
from .formulas import HClause, Program
# is_guarded_atom has no caller here; perfbench/tracing.py patches it under
# this module's name
from .guardedness import is_guarded_atom, snapshot
from .terms import App, Con, Fix, Signature, Term, Var, field, record

STAR = "*"


@record
class Tree:
    label: str
    children: tuple["Tree", ...] = ()
    # the structural hash, computed once; it takes no part in equality
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.label, self.children)))

    def __repr__(self):
        return tree_to_text(self)


def leaf(label: str) -> Tree:
    return Tree(label)


STAR_LEAF = leaf(STAR)


def tree_to_text(t: Tree) -> str:
    if not t.children:
        return t.label
    return f"{t.label}({','.join(tree_to_text(c) for c in t.children)})"


# ---------------------------------------------------------------------------
# Term -> tree
# ---------------------------------------------------------------------------


def term_to_tree(sig: Signature, t: Term) -> Tree:
    """Position-map reading of a first-order term or atom."""
    head, args = tm.spine(t)
    if isinstance(head, Var):
        if args:
            raise NotFirstOrder(f"variable {head.name} applied to arguments")
        return leaf(head.name)
    if isinstance(head, Con):
        return Tree(head.name, tuple(term_to_tree(sig, a) for a in args))
    raise NotFirstOrder(f"{tm.brief(t)} is not a first-order term")


def truncate(t: Tree, n: int) -> Tree:
    """Keep positions shallower than n verbatim, map depth-n positions to *."""

    def go(u: Tree, d: int) -> Tree:
        if d == n:
            return STAR_LEAF
        return Tree(u.label, tuple(go(c, d + 1) for c in u.children))

    return go(t, 0)


def _gamma(a: Tree, b: Tree, d: int) -> int | None:
    """Least n at which the depth-n truncations differ, None if equal."""
    if a.label != b.label or len(a.children) != len(b.children):
        return d + 1
    out = None
    for ca, cb in zip(a.children, b.children):
        g = _gamma(ca, cb, d + 1)
        if g is not None:
            out = g if out is None else min(out, g)
    return out


def distance(t1: Tree, t2: Tree) -> Fraction:
    """Ultrametric tree distance 2^-gamma, 0 for equal trees."""
    from fractions import Fraction

    g = _gamma(t1, t2, 0)
    if g is None:
        return Fraction(0)
    return Fraction(1, 2 ** g)


# ---------------------------------------------------------------------------
# Atoms -> truncated trees
# ---------------------------------------------------------------------------


def atom_to_tree(sig: Signature, atom: Term, depth: int, memo: dict | None = None) -> Tree:
    """Truncated tree of a first-order or guarded atom, built top-down in
    one walk that emits `*` at the cut.

    A guarded atom is β-normalised and checked by one snapshot, which
    covers every later unfolding: a guarded fixed point applied to
    first-order arguments unfolds to one constructor over first-order
    arguments and one new guarded call.  So the walk unfolds a fix-headed
    position only above the cut; `DepthUnreachable` means an unfolding
    exposed no constructor head.  A first-order atom that is not β-normal
    raises `NotFirstOrder`, as in `term_to_tree`.  `memo` maps (subterm,
    remaining depth) to its tree, each tree to its one copy and each
    fix-headed subterm to its unfolding's spine, so a memo unfolds each
    distinct fix-headed subterm once; no failure is ever stored.  An atom
    is rendered once per grounding: `Grounding.key` answers before this."""
    memo = {} if memo is None else memo
    if not tm.is_first_order_atom(sig, {}, atom):
        atom = tm.beta_normalize(atom)
        snapshot(sig, atom)
    elif tm.beta_normalize(atom) is not atom:
        return truncate(term_to_tree(sig, atom), depth)

    def walk(u: Term, n: int) -> Tree:
        if n <= 0:
            return STAR_LEAF
        tree = memo.get((u, n))
        if tree is None:
            head, args = tm.spine(u)
            if isinstance(head, Fix):
                if u not in memo:
                    head, args = tm.spine(tm.fair_unfold(u))
                    if not isinstance(head, Con):
                        raise DepthUnreachable(f"unfolding {tm.brief(u)} exposes no constructor")
                    memo[u] = head, args
                head, args = memo[u]
            tree = Tree(head.name, tuple(walk(a, n - 1) for a in args))
            tree = memo[u, n] = memo.setdefault(tree, tree)
        return tree

    return walk(atom, depth)


# ---------------------------------------------------------------------------
# Interpretations
# ---------------------------------------------------------------------------


@record
class Interpretation:
    """A depth-bounded description of a set of closed tree-atoms: every
    member is truncated at exactly `depth` (shallower finite atoms are
    stored exactly, which truncation already guarantees).

    Distinct atoms may truncate to the same tree; `reps` keeps the known
    term representatives behind each member, and `grounding` the grounding
    that rendered them, for later calls to render through."""

    depth: int
    atoms: frozenset[Tree]
    reps: dict[Tree, tuple[Term, ...]] = field(default_factory=dict, compare=False, repr=False)
    grounding: Grounding | None = field(default=None, compare=False, repr=False)


def export_interpretation(interp: Interpretation) -> str:
    lines = sorted(tree_to_text(t) for t in interp.atoms)
    return "\n".join([f"depth {interp.depth}"] + lines) + "\n"


# ---------------------------------------------------------------------------
# Instance configuration and the term universe
# ---------------------------------------------------------------------------


# Caps on the enumeration: universe terms, truncated atoms in `gfp_approx`,
# atoms seeded from the universe, ground instances per clause in
# `t_operator`, and pool terms tried per body variable that a clause head
# leaves open.
MAX_TERMS = 200
MAX_ATOMS = 4000
MAX_UNIVERSE_ATOMS = 600
MAX_INSTANCES = 20000
BODY_VAR_POOL = 24


@record
class InstanceConfig:
    term_size: int = 3
    seed_atoms: tuple[Term, ...] = ()


def universe_terms(program: Program, cfg: InstanceConfig) -> list[Term]:
    """Closed terms of the individual type: first-order terms up to the
    configured size, then the named fixed-point definitions applied to
    them.  Every constant that is no predicate has a type i -> ... -> i,
    so the terms of one size are one list.  The pool a program keeps for
    the term size, if any, is returned as it is: callers never change it."""
    uni = program._universes.get(cfg.term_size)
    if uni is not None:
        return uni.pool
    sig = program.signature
    by_size: list[list[Term]] = [[]]
    for size in range(1, cfg.term_size + 1):
        layer: list[Term] = []
        for name, cty in sig.constructors():
            arity = len(tm.argument_types(cty))
            if not arity:
                if size == 1:
                    layer.append(Con(name))
                continue
            for split in _compositions(size - 1, arity):
                layer.extend(tm.app(Con(name), *combo) for combo in itertools.product(*(by_size[n] for n in split)))
        by_size.append(layer)
    out = [t for layer in by_size for t in layer][:MAX_TERMS]
    extra: list[Term] = []
    for _name, d in program.fix_definitions:
        arity = len(tm.argument_types(tm.typecheck(sig, {}, d)))
        if arity == 0:
            extra.append(d)
            continue
        for combo in itertools.product(out[:8], repeat=arity):
            extra.append(tm.beta_normalize(tm.app(d, *combo)))
    out.extend(extra)
    return out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Immediate consequence operator
# ---------------------------------------------------------------------------


def t_operator(program: Program, interp: Interpretation, cfg: InstanceConfig) -> Interpretation:
    """Heads of all enumerated tree-form ground clause instances whose
    truncated bodies the interpretation contains.  The instances range
    over the pool, at most `MAX_INSTANCES` a clause, in the clauses the
    universe renamed apart; their atoms render through one grounding at
    the interpretation's depth, so each distinct atom is rendered once."""
    g = grounding(program, cfg, interp.depth)
    atoms: set[Tree] = set()
    for head, body, metas in g.uni.renamed:
        for combo in itertools.islice(itertools.product(g.uni.pool, repeat=len(metas)), MAX_INSTANCES):
            s = dict(zip(metas, combo))
            if all(g.key(tm.beta_normalize(eng.resolve_term(b, s))) in interp.atoms for b in body):
                atoms.add(g.key(tm.beta_normalize(eng.resolve_term(head, s))))
    return Interpretation(interp.depth, frozenset(atoms))


# ---------------------------------------------------------------------------
# Goal-directed justification and the gfp approximation
# ---------------------------------------------------------------------------


RenamedClause = tuple[Term, tuple[Term, ...], list[str]]


def _clauses_with_metas(clauses: list[HClause]) -> list[RenamedClause]:
    """(head, body, metavariable names) of each clause, its universals
    renamed to metavariables that no two clauses share."""
    out = []
    for tag, h in enumerate(clauses):
        metas = [f"{tm.META}u{tag}{tm.FRESH_MARK}{i}" for i in range(len(h.universals))]
        renamed = fm.h_substitute(h, {v: Var(m) for v, m in zip(h.universals, metas)})
        out.append((renamed.head, renamed.body, metas))
    return out


@record(frozen=False)
class _Universe:
    """What every call at one term size shares: the term pool and the
    clauses renamed apart; once `gfp_approx` explores a depth, which keeps
    the universe on the `Program`, also its seeds, one object per distinct
    seed or body atom (`atoms`), each such atom's clause-instance bodies,
    which no depth changes, and per explored depth its state and the key of
    every atom that exploring it rendered."""

    pool: list[Term]
    renamed: list[RenamedClause]
    seeds: list[Term] = field(default_factory=list, repr=False)
    atoms: dict[Term, Term] = field(default_factory=dict, repr=False)
    bodies: dict[Term, tuple[tuple[Term, ...], ...]] = field(default_factory=dict, repr=False)
    explored: dict[int, _Explored] = field(default_factory=dict)
    keys: dict[int, dict[Term, Tree]] = field(default_factory=dict, repr=False)

    def bodies_of(self, atom: Term, g: Grounding) -> tuple[tuple[Term, ...], ...]:
        if atom not in self.bodies:
            intern = self.atoms.setdefault
            self.bodies[atom] = tuple(tuple(intern(b, b) for b in body) for body in justifications(atom, g))
        return self.bodies[atom]


@record(frozen=False)
class Grounding:
    """One depth's view of a program's universe of one term size: the
    truncated key of every atom it rendered (`keys`), with `atom_to_tree`'s
    memo behind them, and the keys the universe keeps for the depth
    (`kept`), which it reads and never renders again.  An atom that does
    not render raises `atom_to_tree`'s error, so every key is a tree and no
    atom leaves the model side by failing to render.  Nothing it renders
    outlives it unless `gfp_approx` keeps the keys of a newly explored
    depth, which the memo's interning keeps small."""

    program: Program
    term_size: int
    depth: int
    uni: _Universe
    keys: dict[Term, Tree] = field(default_factory=dict, repr=False)
    memo: dict = field(default_factory=dict, repr=False)
    kept: dict[Term, Tree] = field(default_factory=dict, repr=False)

    def key(self, atom: Term) -> Tree:
        """The atom's truncated tree; each distinct term is rendered once,
        and a kept one not at all."""
        if (tree := self.kept.get(atom)) is None and (tree := self.keys.get(atom)) is None:
            tree = self.keys[atom] = atom_to_tree(self.program.signature, atom, self.depth, self.memo)
        return tree


def grounding(program: Program, cfg: InstanceConfig, depth: int, g: Grounding | None = None) -> Grounding:
    """A grounding at the depth over the universe the program keeps for
    the term size, reading the keys it keeps for the depth, or else over a
    new universe that nothing keeps, the only place one is built; or `g`, if
    it is one for the program, term size and depth over such a universe."""
    kept_uni = program._universes.get(cfg.term_size)
    same = g is not None and g.program is program and (g.term_size, g.depth) == (cfg.term_size, depth)
    if same and (kept_uni or g.uni) is g.uni:
        return g
    pool = universe_terms(program, cfg)
    uni = kept_uni or _Universe(pool, _clauses_with_metas(program.h_clauses()))
    return Grounding(program, cfg.term_size, depth, uni, kept=uni.keys.get(depth, {}))


def _match(p: Term, t: Term, s: dict[str, Term]) -> dict[str, Term] | None:
    """`eng.unify(p, t, s)` for a closed, fix-free, beta-normal t, binding into s in place."""
    if isinstance(p, App):
        return _match(p.arg, t.arg, s) if isinstance(t, App) and _match(p.fn, t.fn, s) is not None else None
    if isinstance(p, Var) and tm.is_meta(p.name):
        # a repeated metavariable's two closed terms unify when alpha-equal
        return s if (u := s.setdefault(p.name, t)) is t or tm.alpha_eq(u, t) else None
    if isinstance(p, Con):
        return s if isinstance(t, Con) and p.name == t.name else None
    # a rigid variable matches no closed term; a lambda compares as in unify
    return s if not isinstance(p, Var) and type(p) is type(t) and tm.alpha_eq(eng.resolve_term(p, s), t) else None


def justifications(atom: Term, g: Grounding) -> Iterator[list[Term]]:
    """Bodies of clause instances whose head matches the atom, each clause
    tried in order, the few body variables that the head leaves open
    enumerated over the pool: a body is resolved once per match, and then
    only those variables per pool value.  One-way matching serves a closed,
    fix-free atom and a fix-free head, both beta-normal: there `unify_modulo`
    is `unify(head, atom, {})`, which binds only head metavariables, each to
    a closed subterm of the atom.  A guarded atom or a fix-headed lemma needs
    the unfolding walk.  No atom holds a metavariable, so no binding does:
    the open ones are the unbound, and no resolved body holds one.  An atom
    that does hold one raises `UnboundVariable` when its key is rendered."""
    closed = not (atom._fv or tm.has_fix(atom)) and atom._nf
    for head, body, metas in g.uni.renamed:
        s = (_match(head, atom, {}) if closed and head._nf and not head._fix
             else eng.unify_modulo(head, atom, {}, tm.UNFOLD_BOUND))
        if s is None:
            continue
        unbound = [m for m in metas if m not in s]
        partial = [eng.resolve_term(b, s) for b in body]
        for combo in itertools.product(g.uni.pool[:BODY_VAR_POOL], repeat=len(unbound)):
            values = dict(zip(unbound, combo))
            yield [tm.beta_normalize(eng.resolve_term(b, values)) for b in partial]


def justify(atom: Term, interp: Interpretation, g: Grounding) -> list[Term] | None:
    """Some clause-instance body for this head with every body atom in the
    interpretation; None when no enumerated instance works.  The bodies
    that the universe holds for the atom are read, not enumerated again,
    and a body is rendered only up to its first atom outside the
    interpretation.  The grounding must be at the interpretation's depth."""
    if g.depth != interp.depth:
        raise ValueError(f"a grounding at depth {g.depth} cannot justify at depth {interp.depth}")
    bodies = g.uni.bodies.get(atom)
    for body in justifications(atom, g) if bodies is None else bodies:
        if all(g.key(b) in interp.atoms for b in body):
            return list(body)
    return None


def _universe_seeds(g: Grounding) -> list[Term]:
    """Predicate atoms over the grounding's pool."""
    seeds, sig = [], g.program.signature
    for p in sig.predicates():
        head = Con(p)
        arity = len(tm.argument_types(sig.lookup(p)))
        for combo in itertools.product(g.uni.pool, repeat=arity):
            seeds.append(tm.app(head, *combo))
            if len(seeds) >= MAX_UNIVERSE_ATOMS:
                return seeds
    return seeds


@record(frozen=False)
class _Explored:
    """The state of `gfp_approx`'s worklist: per key, its representatives
    by alpha key in the order seen, how many came through clause bodies,
    and its distinct bodies, each the frozenset of its body keys.
    A kept state's per-key containers are replaced, never changed in place,
    so a copy copies the three tables and never a key's entries."""

    reps: dict[Tree, dict[str, Term]] = field(default_factory=dict)
    derived_count: dict[Tree, int] = field(default_factory=dict)
    expansions: dict[Tree, set[frozenset[Tree]]] = field(default_factory=dict)

    def copy(self) -> "_Explored":
        return _Explored(dict(self.reps), dict(self.derived_count), dict(self.expansions))


def _explore(state: _Explored, seeds: list[Term], g: Grounding) -> None:
    """Run the worklist from the seeds until it is empty, last seed first,
    each atom reached through a body pushed on top.  The universe keeps the
    depth's state once its exploration completes; until then the bodies are
    the universe's, after that a call's own, and a key holding the kept
    state's containers gets copies before its first addition."""
    kept = g.uni.explored.get(g.depth)
    bodies, shared = (g.uni.bodies_of, {}) if kept is None else (justifications, kept.reps)
    work: list[tuple[Term, bool]] = [(a, True) for a in seeds]
    reps, derived_count, expansions = state.reps, state.derived_count, state.expansions
    while work:
        a, is_seed = work.pop()
        key = g.key(a)
        # distinct atoms can truncate to the same key; their expansions are
        # unioned.  Seeds are always processed; atoms discovered through
        # clause bodies are capped per key, since body chains can produce
        # unboundedly many terms behind one stabilized truncation.
        alpha = tm.alpha_key(a)
        if alpha in reps.get(key, ()):
            continue
        if not is_seed and derived_count.get(key, 0) >= 4:
            continue
        if key not in expansions:
            if len(expansions) >= MAX_ATOMS:
                raise UniverseTooLarge(
                    f"atom space exceeded {MAX_ATOMS} truncated atoms; shrink the depth or the universe"
                )
            reps[key], expansions[key] = {}, set()
        elif reps[key] is shared.get(key):
            reps[key], expansions[key] = dict(reps[key]), set(expansions[key])
        reps[key][alpha] = a
        if not is_seed:
            derived_count[key] = derived_count.get(key, 0) + 1
        for body in bodies(a, g):
            expansions[key].add(frozenset(map(g.key, body)))
            work += [(b, False) for b in body]


def gfp_approx(program: Program, depth: int, cfg: InstanceConfig, g: Grounding | None = None) -> Interpretation:
    """Downward iteration to a fixed point over the atom space reachable
    from the seeds; an over-approximation of the greatest fixed point at
    this resolution, so absence certifies non-membership over the
    enumerated universe.

    The worklist is a stack holding the configured seeds under the
    universe seeds, the predicate atoms over the pool.  Every universe
    seed, and every atom reached from one, is therefore handled before the
    first configured seed, and the state at that point depends on the
    program, the depth and the term size only.  The universe keeps it per
    depth, with the keys it rendered, the first explored depth computing
    the universe seeds, and the program keeps the universe per term size;
    a call resumes from a copy of the state's three tables, never of a
    key's entries, with its own seeds and keys, kept nowhere: the same
    computation as running the whole stack.  A depth whose exploration
    raises `UniverseTooLarge` keeps no state or keys, so every such call
    raises it.  A seed or body atom that does not render raises, as the
    grounding's keys do.  Each pass then drops every key that has no body
    with all its keys alive, until a pass drops none.  The interpretation
    carries the grounding, `g` if `grounding` takes it."""
    g = grounding(program, cfg, depth, g)
    uni = g.uni
    if depth not in uni.explored:
        # seeds, interned atoms and bodies hold at every depth; the depth's
        # state and its exploration's own keys are kept once it completes
        if not uni.explored:
            uni.seeds = [uni.atoms.setdefault(a, a) for a in _universe_seeds(g)]
        own, g.keys = g.keys, {}
        explored = _Explored()
        _explore(explored, uni.seeds, g)
        uni.explored[depth], uni.keys[depth] = explored, g.keys
        program._universes[cfg.term_size] = uni
        # atoms not of the exploration are rendered into keys never kept
        g.kept, g.keys = g.keys, own
    state = uni.explored[depth].copy()
    _explore(state, list(cfg.seed_atoms), g)
    alive = set(state.expansions)
    while dead := [k for k in alive if not any(map(alive.issuperset, state.expansions[k]))]:
        alive.difference_update(dead)
    return Interpretation(depth, frozenset(alive), {k: tuple(state.reps[k].values()) for k in alive}, g)


IN_APPROX = "InApprox"
CERTAINLY_OUT = "CertainlyOut"


def member_of_model(atom: Term, approx: Interpretation, sig: Signature) -> str:
    """Membership of a closed first-order or guarded atom in the
    approximated coinductive model, keyed by the approximation's grounding
    where it has one of this signature, else rendered afresh."""
    g = approx.grounding
    key = g.key(atom) if g is not None and g.program.signature is sig else atom_to_tree(sig, atom, approx.depth)
    return IN_APPROX if key in approx.atoms else CERTAINLY_OUT


# `refute`'s rank cap and its budget of explored atoms
MAX_RANK, REFUTE_BUDGET = 12, 2000


def _instances(atom: Term, renamed: list[RenamedClause]) -> list[tuple[Term, ...]] | None:
    """The bodies of the clause instances whose head matches the closed
    atom, None if the atom is incomplete: a match that the unfolding bound
    ended, or a body-only variable left open."""
    closed = not (atom._fv or atom._fix) and atom._nf
    out = []
    for head, body, _metas in renamed:
        s = (_match(head, atom, {}) if closed and head._nf and not head._fix
             else tm.unfolding_walk(head, atom, tm.UNFOLD_BOUND, lambda a, b: eng.unify(a, b, {})))
        if s is tm.UNKNOWN:
            return None
        if s is not None:
            out.append(tuple(tm.beta_normalize(eng.resolve_term(b, s)) for b in body))
    return None if any(b._fv for body in out for b in body) else out


def refute(program: Program, atom: Term) -> int | None:
    """The rank at which finite failure refutes a closed atom, or None.
    A complete atom (`_instances`) has rank r when each of its instances
    has a body atom of rank below r, so rank 1 when it has none.  By
    induction on r no ranked atom lies in gfp T: the match binds each head
    variable to a subterm of the atom and no body variable stays open, so
    every ground instance with the atom as head is an enumerated one up to
    fix-beta-equality, with a body atom outside gfp T = T(gfp T).  This is
    finite failure, dual to the least fixed point (Apt & van Emden, JACM
    1982; Lassez & Maher, TCS 1984).  Ranks are computed as that least
    fixed point over the atoms within `MAX_RANK` levels of the goal,
    explored breadth first, at most `REFUTE_BUDGET` of them."""
    renamed = _clauses_with_metas(program.h_clauses())
    goal = tm.beta_normalize(atom)
    bodies: dict[Term, list[tuple[Term, ...]] | None] = {}
    level = [goal]
    for _ in range(MAX_RANK):
        nxt = []
        for a in level:
            if a not in bodies and len(bodies) < REFUTE_BUDGET:
                bodies[a] = _instances(a, renamed)
                nxt += [b for body in bodies[a] or () for b in body]
        level = nxt
    rank: dict[Term, int] = {}
    for r in range(1, MAX_RANK + 1):
        ranked = [a for a, insts in bodies.items() if a not in rank and insts is not None
                  and all(any(rank.get(b, r) < r for b in body) for body in insts)]
        rank.update(dict.fromkeys(ranked, r))
    return rank.get(goal)


def model_verdict(program: Program, atom: Term, approx: Interpretation) -> str:
    """`member_of_model`'s answer, but `CertainlyOut` only with a rank from
    `refute`: the approximation alone drops an atom whose body-only
    variable's witness lies outside the term pool."""
    out = member_of_model(atom, approx, program.signature) == CERTAINLY_OUT and refute(program, atom) is not None
    return CERTAINLY_OUT if out else IN_APPROX
