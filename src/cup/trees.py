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
from .errors import (
    CupError,
    DepthUnreachable,
    NotFirstOrder,
    UniverseTooLarge,
)
from .formulas import HClause, Program
# is_guarded_atom has no caller here; perfbench/tracing.py patches it under
# this module's name
from .guardedness import is_guarded_atom, snapshot
from .terms import Con, Fix, IOTA, Signature, Term, Var, field, record

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
    position once, only above the cut; `DepthUnreachable` means an
    unfolding exposed no constructor head.  A first-order atom that is not
    β-normal raises `NotFirstOrder`, as in `term_to_tree`.  `memo` maps
    (subterm, remaining depth) to its tree and each tree to its one copy."""
    if not tm.is_first_order_atom(sig, {}, atom):
        atom = tm.beta_normalize(atom)
        snapshot(sig, atom)
    elif tm.beta_normalize(atom) is not atom:
        return truncate(term_to_tree(sig, atom), depth)
    memo = {} if memo is None else memo

    def walk(u: Term, n: int) -> Tree:
        if n <= 0:
            return STAR_LEAF
        tree = memo.get((u, n))
        if tree is None:
            head, args = tm.spine(u)
            if isinstance(head, Fix):
                head, args = tm.spine(tm.fair_unfold(u))
                if not isinstance(head, Con):
                    raise DepthUnreachable(f"unfolding {tm.brief(u)} exposes no constructor")
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
    term representatives behind each member."""

    depth: int
    atoms: frozenset[Tree]
    reps: dict[Tree, tuple[Term, ...]] = field(default_factory=dict, compare=False, repr=False)


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
    them.  The pool a program keeps for the term size, if any, is returned
    as it is: callers never change it."""
    uni = program._universes.get(cfg.term_size)
    if uni is not None:
        return uni.pool
    sig = program.signature
    by_size: dict[int, dict[tm.SimpleType, list[Term]]] = {}
    cons = sig.constructors()
    for size in range(1, cfg.term_size + 1):
        layer: dict[tm.SimpleType, list[Term]] = {}
        for name, cty in cons:
            args = tm.argument_types(cty)
            target = tm.target_type(cty)
            if not args:
                if size == 1:
                    layer.setdefault(target, []).append(Con(name))
                continue
            for split in _compositions(size - 1, len(args)):
                pools = [by_size.get(s, {}).get(a, []) for s, a in zip(split, args)]
                for combo in itertools.product(*pools):
                    layer.setdefault(target, []).append(tm.app(Con(name), *combo))
        by_size[size] = layer
    out: list[Term] = []
    for size in range(1, cfg.term_size + 1):
        out.extend(by_size.get(size, {}).get(IOTA, []))
        if len(out) >= MAX_TERMS:
            out = out[:MAX_TERMS]
            break
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


def _render_body(sig: Signature, b: Term, depth: int, memo: dict | None = None) -> Tree | None:
    try:
        return atom_to_tree(sig, b, depth, memo)
    except CupError:
        return None


def t_operator(program: Program, interp: Interpretation, cfg: InstanceConfig) -> Interpretation:
    """Heads of all enumerated tree-form ground clause instances whose
    truncated bodies the interpretation contains.  The instances range
    over the pool; their atoms render through one grounding at the
    interpretation's depth, so each distinct atom is rendered once."""
    g = grounding(program, cfg, interp.depth)
    atoms: set[Tree] = set()
    for h in program.h_clauses():
        for inst in fm.ground_instances(h, g.uni.pool, MAX_INSTANCES):
            if all(g.key(b) in interp.atoms for b in inst.body) and (head := g.key(inst.head)) is not None:
                atoms.add(head)
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
    """What every call at one term size shares: the term pool, the clauses
    renamed apart and, per predicate constant, those that can match it
    (`by_head`); once `gfp_approx` explores a depth, which keeps the
    universe on the `Program`, also its seeds, one object per distinct seed
    or body atom (`atoms`), each such atom's clause-instance bodies, which
    no depth changes, and per explored depth its state and the key of every
    atom that exploring it rendered."""

    pool: list[Term]
    renamed: list[RenamedClause]
    by_head: dict[Con, list[RenamedClause]] = field(default_factory=dict, repr=False)
    seeds: list[Term] = field(default_factory=list, repr=False)
    atoms: dict[Term, Term] = field(default_factory=dict, repr=False)
    bodies: dict[Term, tuple[tuple[Term, ...], ...]] = field(default_factory=dict, repr=False)
    explored: dict[int, _Explored] = field(default_factory=dict)
    keys: dict[int, dict[Term, Tree | None]] = field(default_factory=dict, repr=False)

    def clauses(self, atom: Term) -> list[RenamedClause]:
        """The renamed clauses, in order, that can match the atom: all of
        them when its head is not a constant, else those whose head is that
        constant or not a constant."""
        head = tm.spine(atom)[0]
        if not isinstance(head, Con):
            return self.renamed
        if head not in self.by_head:
            self.by_head[head] = [c for c in self.renamed if not isinstance(h := tm.spine(c[0])[0], Con) or h == head]
        return self.by_head[head]

    def bodies_of(self, atom: Term, g: Grounding) -> tuple[tuple[Term, ...], ...]:
        if atom not in self.bodies:
            intern = self.atoms.setdefault
            self.bodies[atom] = tuple(tuple(intern(b, b) for b in body) for body in justifications(atom, g))
        return self.bodies[atom]


@record(frozen=False)
class Grounding:
    """One depth's view of a universe: the truncated key of every atom it
    rendered (`keys`), with `atom_to_tree`'s memo behind them, and the keys
    the universe keeps for the depth (`kept`), which it reads and never
    renders again.  Its keys and memo are its own, so nothing a call
    renders outlives it unless `gfp_approx` keeps the keys of a newly
    explored depth, which the memo's interning keeps small."""

    sig: Signature
    depth: int
    uni: _Universe
    keys: dict[Term, Tree | None] = field(default_factory=dict, repr=False)
    memo: dict = field(default_factory=dict, repr=False)
    kept: dict[Term, Tree | None] = field(default_factory=dict, repr=False)

    def key(self, atom: Term) -> Tree | None:
        """The atom's truncated tree, None if it does not render; each
        distinct term is rendered once, and a kept one not at all."""
        # a key is a tree or None, never the label STAR: one lookup a table
        if (tree := self.kept.get(atom, STAR)) is STAR and (tree := self.keys.get(atom, STAR)) is STAR:
            tree = self.keys[atom] = _render_body(self.sig, atom, self.depth, self.memo)
        return tree


def grounding(program: Program, cfg: InstanceConfig, depth: int) -> Grounding:
    """A grounding at the depth over the universe the program keeps for
    the term size, reading the keys it keeps for the depth, or else over a
    new universe that nothing keeps; the only place a universe is built."""
    pool = universe_terms(program, cfg)
    uni = program._universes.get(cfg.term_size) or _Universe(pool, _clauses_with_metas(program.h_clauses()))
    return Grounding(program.signature, depth, uni, kept=uni.keys.get(depth, {}))


def justifications(atom: Term, g: Grounding) -> Iterator[list[Term]]:
    """Bodies of clause instances whose head matches the atom, the few body
    variables that the head leaves open enumerated over the pool: a body is
    resolved once per match, and then only those variables per pool value."""
    for head, body, metas in g.uni.clauses(atom):
        s = eng.unify_modulo(head, atom, {}, tm.UNFOLD_BOUND)
        if s is None:
            continue
        unbound = [m for m in metas if eng.unresolved_metas(Var(m), s)]
        bound = {k: v for k, v in s.items() if k not in unbound}
        partial = [eng.resolve_term(b, bound) for b in body]
        for combo in itertools.product(g.uni.pool[:BODY_VAR_POOL], repeat=len(unbound)):
            values = dict(zip(unbound, combo))
            resolved = [tm.beta_normalize(eng.resolve_term(b, values)) for b in partial]
            if any(tm.is_meta(n) for r in resolved for n in tm.free_vars(r)):
                continue
            yield resolved


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
        # an atom that does not render has the key None, never a member
        if all(g.key(b) in interp.atoms for b in body):
            return list(body)
    return None


def _universe_seeds(g: Grounding) -> list[Term]:
    """Predicate atoms over the grounding's pool."""
    seeds = []
    for p in g.sig.predicates():
        head = Con(p)
        arity = len(tm.argument_types(g.sig.lookup(p)))
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


def _explore(state: _Explored, seeds: list[Term], g: Grounding, bodies, kept: _Explored | None = None) -> None:
    """Run the worklist from the seeds until it is empty, last seed first,
    each atom reached through a body in `bodies(atom, g)` pushed on top; a
    key holding `kept`'s containers gets copies before its first addition."""
    work: list[tuple[Term, bool]] = [(a, True) for a in seeds]
    reps, derived_count, expansions = state.reps, state.derived_count, state.expansions
    shared = {} if kept is None else kept.reps
    while work:
        a, is_seed = work.pop()
        key = g.key(a)
        if key is None:
            continue
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
            keys = []
            for b in body:
                k = g.key(b)
                if k is None:
                    break
                keys.append(k)
                work.append((b, False))
            else:
                expansions[key].add(frozenset(keys))


def gfp_approx(program: Program, depth: int, cfg: InstanceConfig) -> Interpretation:
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
    raises it.  Each pass then drops every key that has no body with all
    its keys alive, until a pass drops none."""
    g = grounding(program, cfg, depth)
    uni = g.uni
    if depth not in uni.explored:
        # seeds, interned atoms and bodies hold at every depth; the depth's
        # state and keys are kept only once it completes
        if not uni.explored:
            uni.seeds = [uni.atoms.setdefault(a, a) for a in _universe_seeds(g)]
        explored = _Explored()
        _explore(explored, uni.seeds, g, uni.bodies_of)
        uni.explored[depth], uni.keys[depth] = explored, g.keys
        program._universes[cfg.term_size] = uni
        # the call's own atoms are rendered into keys that it drops
        g.kept, g.keys = g.keys, {}
    state = uni.explored[depth].copy()
    _explore(state, list(cfg.seed_atoms), g, justifications, uni.explored[depth])
    alive = set(state.expansions)
    while dead := [k for k in alive if not any(map(alive.issuperset, state.expansions[k]))]:
        alive.difference_update(dead)
    return Interpretation(depth, frozenset(alive), {k: tuple(state.reps[k].values()) for k in alive})


IN_APPROX = "InApprox"
CERTAINLY_OUT = "CertainlyOut"


def member_of_model(atom: Term, approx: Interpretation, sig: Signature) -> str:
    """Membership of a closed first-order or guarded atom in the
    approximated coinductive model."""
    key = atom_to_tree(sig, atom, approx.depth)
    return IN_APPROX if key in approx.atoms else CERTAINLY_OUT
