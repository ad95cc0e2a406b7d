"""Coinductive Herbrand machinery: tree-terms and tree-atoms as
finitely-branching position maps, the truncation metric, rendering of
guarded atoms into depth-truncated trees, the immediate consequence
operator, and a bounded approximation of its greatest fixed point.

Finite trees are stored explicitly; an infinite tree only ever exists as
the family of its depth truncations, with `*` leaves marking the cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from . import engine as eng
from . import formulas as fm
from . import terms as tm
from .errors import (
    CupError,
    DepthUnreachable,
    NotFirstOrder,
    PreconditionViolated,
    UniverseTooLarge,
)
from .formulas import HClause, Program
from .guardedness import is_guarded_atom, snapshot
from .terms import Con, DIAMOND, IOTA, Signature, Term, Var

STAR = "*"


@dataclass(frozen=True)
class Tree:
    label: str
    children: tuple["Tree", ...] = ()
    # the structural hash, computed once; it takes no part in equality
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.label, self.children)))

    def __hash__(self):
        return self._hash

    def positions(self, prefix: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], str]]:
        yield prefix, self.label
        for i, c in enumerate(self.children):
            yield from c.positions(prefix + (i,))

    def at(self, pos: tuple[int, ...]) -> Optional[str]:
        node = self
        for i in pos:
            if i >= len(node.children):
                return None
            node = node.children[i]
        return node.label

    def height(self) -> int:
        if not self.children:
            return 0
        return 1 + max(c.height() for c in self.children)

    def __repr__(self):
        return tree_to_text(self)


def leaf(label: str) -> Tree:
    return Tree(label)


STAR_LEAF = leaf(STAR)


def tree_to_text(t: Tree) -> str:
    if not t.children:
        return t.label
    return f"{t.label}({','.join(tree_to_text(c) for c in t.children)})"


def tree_from_text(s: str) -> Tree:
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in "(),":
            pos += 1
        label = s[start:pos].strip()
        if not label:
            raise ValueError(f"empty node label in {s!r}")
        children: list[Tree] = []
        if pos < len(s) and s[pos] == "(":
            pos += 1
            children.append(parse())
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(parse())
            if pos >= len(s) or s[pos] != ")":
                raise ValueError(f"unbalanced parentheses in {s!r}")
            pos += 1
        return Tree(label, tuple(children))

    out = parse()
    if pos != len(s.strip()) and s[pos:].strip():
        raise ValueError(f"trailing input in {s!r}")
    return out


def check_arities(sig: Signature, t: Tree) -> bool:
    """Children counts must match symbol arities; `*`, the snapshot
    placeholder, and variables are exempt leaves."""
    if t.label in (STAR, DIAMOND):
        return not t.children
    ty = sig.lookup(t.label)
    if ty is None:
        return not t.children  # a variable leaf
    if len(t.children) != len(tm.argument_types(ty)):
        return False
    return all(check_arities(sig, c) for c in t.children)


def is_closed_tree(sig: Signature, t: Tree) -> bool:
    return all(
        label in (STAR, DIAMOND) or label in sig
        for _pos, label in t.positions()
    )


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
    raise NotFirstOrder(f"{t!r} is not a first-order term")


def truncate(t: Tree, n: int) -> Tree:
    """Keep positions shallower than n verbatim, map depth-n positions to *."""

    def go(u: Tree, d: int) -> Tree:
        if d == n:
            return STAR_LEAF
        return Tree(u.label, tuple(go(c, d + 1) for c in u.children))

    return go(t, 0)


def _gamma(a: Tree, b: Tree, d: int) -> Optional[int]:
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
    g = _gamma(t1, t2, 0)
    if g is None:
        return Fraction(0)
    return Fraction(1, 2 ** g)


def tree_substitute(t: Tree, name: str, s: Tree) -> Tree:
    """Graft s below every position labelled `name`."""
    if t.label == name and not t.children:
        return s
    return Tree(t.label, tuple(tree_substitute(c, name, s) for c in t.children))


# ---------------------------------------------------------------------------
# Guarded atoms -> truncated trees
# ---------------------------------------------------------------------------


def _diamond_min_depth(t: Tree) -> Optional[int]:
    depths = [len(pos) for pos, label in t.positions() if label == DIAMOND]
    return min(depths) if depths else None


def guarded_atom_to_tree(
    sig: Signature,
    atom: Term,
    depth: int,
    unfold_budget: Optional[int] = None,
    check: bool = False,
) -> Tree:
    """Unfold fairly until the snapshot tree is determined to the requested
    depth, then truncate.  Fairness here means every unfoldable position is
    reduced once per round."""
    if check and not is_guarded_atom(sig, atom):
        raise PreconditionViolated(f"{atom!r} is not a guarded atom")
    budget = unfold_budget if unfold_budget is not None else depth + 8
    t = tm.beta_normalize(atom)
    for _k in range(budget + 1):
        snap = snapshot(sig, t)
        tree = term_to_tree(sig, snap)
        dmin = _diamond_min_depth(tree)
        if dmin is None or dmin >= depth:
            return truncate(tree, depth)
        t = tm.fair_unfold(t)
    raise DepthUnreachable(f"snapshot not determined to depth {depth} within {budget} unfold rounds")


def atom_to_tree(sig: Signature, atom: Term, depth: int, unfold_budget: Optional[int] = None) -> Tree:
    """Truncated tree of a first-order or guarded atom."""
    if tm.is_first_order_atom(sig, {}, atom):
        return truncate(term_to_tree(sig, atom), depth)
    return guarded_atom_to_tree(sig, atom, depth, unfold_budget)


# ---------------------------------------------------------------------------
# Interpretations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interpretation:
    """A depth-bounded description of a set of closed tree-atoms: every
    member is truncated at exactly `depth` (shallower finite atoms are
    stored exactly, which truncation already guarantees).

    Distinct atoms may truncate to the same tree; `reps_all` keeps the
    known term representatives behind each member."""

    depth: int
    atoms: frozenset[Tree]
    reps: dict[Tree, Term] = field(default_factory=dict, compare=False, hash=False, repr=False)
    reps_all: dict[Tree, tuple[Term, ...]] = field(default_factory=dict, compare=False, hash=False, repr=False)

    def __contains__(self, t: Tree) -> bool:
        return truncate(t, self.depth) in self.atoms

    def representatives(self, t: Tree) -> tuple[Term, ...]:
        if t in self.reps_all:
            return self.reps_all[t]
        if t in self.reps:
            return (self.reps[t],)
        return ()


def export_interpretation(interp: Interpretation) -> str:
    lines = sorted(tree_to_text(t) for t in interp.atoms)
    return "\n".join([f"depth {interp.depth}"] + lines) + "\n"


def import_interpretation(text: str) -> Interpretation:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("depth "):
        raise ValueError("interpretation listing must start with 'depth N'")
    depth = int(lines[0].split()[1])
    return Interpretation(depth, frozenset(tree_from_text(ln) for ln in lines[1:]))


# ---------------------------------------------------------------------------
# Instance configuration and the term universe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceConfig:
    term_size: int = 3
    max_terms: int = 200
    include_fix_defs: bool = True
    extra_terms: tuple[Term, ...] = ()
    seed_atoms: tuple[Term, ...] = ()
    seed_universe_atoms: bool = True
    max_universe_atoms: int = 600
    max_atoms: int = 4000
    max_instances: int = 20000
    unfold_bound: int = 8
    body_var_pool: int = 24


def universe_terms(program: Program, cfg: InstanceConfig, sig: Optional[Signature] = None) -> list[Term]:
    """Closed terms of the individual type: first-order terms up to the
    configured size, named fixed-point definitions applied to them, and any
    caller-supplied extras."""
    sig = sig or program.signature
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
            budget = size - 1
            if budget < len(args):
                continue
            for split in _compositions(budget, len(args)):
                pools = [by_size.get(s, {}).get(a, []) for s, a in zip(split, args)]
                if any(not p for p in pools):
                    continue
                for combo in itertools.product(*pools):
                    layer.setdefault(target, []).append(tm.app(Con(name), *combo))
        by_size[size] = layer
    out: list[Term] = []
    for size in range(1, cfg.term_size + 1):
        out.extend(by_size.get(size, {}).get(IOTA, []))
        if len(out) >= cfg.max_terms:
            out = out[: cfg.max_terms]
            break
    if cfg.include_fix_defs:
        fo_args = [t for t in out if tm.is_first_order(sig, {}, t)]
        extra: list[Term] = []
        for _name, d in program.fix_definitions:
            arity = len(tm.argument_types(tm.typecheck(sig, {}, d)))
            if arity == 0:
                extra.append(d)
                continue
            for combo in itertools.product(fo_args[:8], repeat=arity):
                extra.append(tm.beta_normalize(tm.app(d, *combo)))
        out.extend(extra)
    for t in cfg.extra_terms:
        if not any(tm.alpha_eq(t, u) for u in out):
            out.append(t)
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


def _render_body(sig: Signature, b: Term, depth: int, bound: int) -> Optional[Tree]:
    try:
        return atom_to_tree(sig, b, depth, unfold_budget=max(bound, depth + 8))
    except CupError:
        return None


def t_operator(
    program: Program,
    interp: Interpretation,
    cfg: InstanceConfig,
    extra_clauses: tuple[HClause, ...] = (),
    sig: Optional[Signature] = None,
) -> Interpretation:
    """Heads of all enumerated tree-form ground clause instances whose
    truncated bodies the interpretation contains."""
    sig = sig or program.signature
    clauses = program.h_clauses() + list(extra_clauses)
    uni = universe_terms(program, cfg, sig)
    depth = interp.depth
    atoms: set[Tree] = set()
    reps: dict[Tree, Term] = {}
    for h in clauses:
        count = 0
        for inst in fm.ground_instances(h, uni):
            count += 1
            if count > cfg.max_instances:
                break
            body_trees = [_render_body(sig, b, depth, cfg.unfold_bound) for b in inst.body]
            if any(t is None for t in body_trees):
                continue
            if any(t not in interp.atoms for t in body_trees):
                continue
            head_tree = _render_body(sig, inst.head, depth, cfg.unfold_bound)
            if head_tree is None:
                continue
            atoms.add(head_tree)
            reps.setdefault(head_tree, inst.head)
    return Interpretation(depth, frozenset(atoms), reps)


# ---------------------------------------------------------------------------
# Goal-directed justification and the gfp approximation
# ---------------------------------------------------------------------------


RenamedClause = tuple[Term, list[Term], list[str]]


def _clauses_with_metas(clauses: list[HClause]) -> list[RenamedClause]:
    """(head, body, metavariable names) of each clause, its universals
    renamed to metavariables that no two clauses share."""
    out = []
    for tag, h in enumerate(clauses):
        binding = {v: Var(f"?u{tag}{tm.FRESH_MARK}{i}") for i, v in enumerate(h.universals)}
        subs = list(binding.items())
        head = tm.beta_normalize(tm.substitute(h.head, subs))
        body = [tm.beta_normalize(tm.substitute(b, subs)) for b in h.body]
        out.append((head, body, [binding[v].name for v in h.universals]))
    return out


@dataclass
class Grounding:
    """What enumerating clause instances at one depth needs, built once per
    `gfp_approx` or `verify_postfixed` call: the clauses renamed apart, the
    term pool for body variables that a head leaves open, and the truncated
    key of every atom rendered so far."""

    sig: Signature
    cfg: InstanceConfig
    depth: int
    renamed: list[RenamedClause]
    pool: list[Term]
    keys: dict[Term, Optional[Tree]] = field(default_factory=dict, repr=False)

    def key(self, atom: Term) -> Optional[Tree]:
        """The atom's truncated tree, None if it does not render; each
        distinct term is rendered once."""
        if atom not in self.keys:
            self.keys[atom] = _render_body(self.sig, atom, self.depth, self.cfg.unfold_bound)
        return self.keys[atom]


def grounding(
    program: Program,
    cfg: InstanceConfig,
    depth: int,
    extra_clauses: tuple[HClause, ...] = (),
    sig: Optional[Signature] = None,
) -> Grounding:
    """A grounding for the program's clauses and the extra ones, with an
    empty render memo."""
    sig = sig or program.signature
    renamed = _clauses_with_metas(program.h_clauses() + list(extra_clauses))
    return Grounding(sig, cfg, depth, renamed, universe_terms(program, cfg, sig))


def justifications(atom: Term, g: Grounding) -> Iterator[list[Term]]:
    """Bodies of clause instances whose head matches the atom, the few body
    variables that the head leaves open enumerated over the pool."""
    cfg = g.cfg
    for head, body, metas in g.renamed:
        s = eng.unify_modulo(head, atom, {}, cfg.unfold_bound)
        if s is None:
            continue
        unbound = [m for m in metas if _has_unbound(Var(m), s)]
        pools = [g.pool[: cfg.body_var_pool] for _ in unbound]
        combos = itertools.product(*pools) if unbound else iter([()])
        for combo in combos:
            s2 = dict(s)
            for name, value in zip(unbound, combo):
                s2[name] = value
            resolved = [tm.beta_normalize(eng.resolve_term(b, s2)) for b in body]
            if any(n.startswith("?") for r in resolved for n in tm.free_vars(r)):
                continue
            yield resolved


def _has_unbound(v: Var, s: dict[str, Term]) -> bool:
    t = eng.resolve_term(v, s)
    return any(n.startswith("?") for n in tm.free_vars(t))


def justify(atom: Term, interp: Interpretation, g: Grounding) -> Optional[list[Term]]:
    """Some clause-instance body for this head with every body atom in the
    interpretation; None when no enumerated instance works.  The grounding
    must be at the interpretation's depth."""
    for body in justifications(atom, g):
        trees = [g.key(b) for b in body]
        if any(t is None for t in trees):
            continue
        if all(t in interp.atoms for t in trees):
            return body
    return None


def _seed_atoms(program: Program, cfg: InstanceConfig, sig: Signature) -> list[Term]:
    seeds = list(cfg.seed_atoms)
    if cfg.seed_universe_atoms:
        uni = universe_terms(program, cfg, sig)
        total = 0
        for p in sig.predicates():
            arity = len(tm.argument_types(sig.lookup(p)))
            combos = itertools.product(uni, repeat=arity)
            for combo in combos:
                seeds.append(tm.app(Con(p), *combo))
                total += 1
                if total >= cfg.max_universe_atoms:
                    break
            if total >= cfg.max_universe_atoms:
                break
    return seeds


def gfp_approx(
    program: Program,
    depth: int,
    cfg: InstanceConfig,
    extra_clauses: tuple[HClause, ...] = (),
    sig: Optional[Signature] = None,
) -> Interpretation:
    """Downward iteration to a fixed point over the atom space reachable
    from the seeds; an over-approximation of the greatest fixed point at
    this resolution, so absence certifies non-membership over the
    enumerated universe."""
    sig = sig or program.signature
    g = grounding(program, cfg, depth, extra_clauses, sig)

    nodes: dict[Tree, Term] = {}
    reps_seen: dict[Tree, list[Term]] = {}
    # every term in some reps_seen list; a term's key is fixed, so a hit
    # here is a hit in its own key's list
    seen: set[Term] = set()
    derived_count: dict[Tree, int] = {}
    expansions: dict[Tree, list[list[Tree]]] = {}
    work: list[tuple[Term, bool]] = [(a, True) for a in _seed_atoms(program, cfg, sig)]
    while work:
        a, is_seed = work.pop()
        key = g.key(a)
        if key is None:
            continue
        # distinct atoms can truncate to the same key; their expansions are
        # unioned.  Seeds are always processed; atoms discovered through
        # clause bodies are capped per key, since body chains can produce
        # unboundedly many terms behind one stabilized truncation.
        reps_here = reps_seen.setdefault(key, [])
        if a in seen or any(tm.alpha_eq(a, r) for r in reps_here):
            continue
        if not is_seed and derived_count.get(key, 0) >= 4:
            continue
        if key not in nodes:
            if len(nodes) >= cfg.max_atoms:
                raise UniverseTooLarge(
                    f"atom space exceeded {cfg.max_atoms} truncated atoms; shrink the depth or the universe"
                )
            nodes[key] = a
            expansions[key] = []
        reps_here.append(a)
        seen.add(a)
        if not is_seed:
            derived_count[key] = derived_count.get(key, 0) + 1
        for body in justifications(a, g):
            keys = []
            ok = True
            for b in body:
                k = g.key(b)
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
    return Interpretation(
        depth,
        frozenset(alive),
        {k: nodes[k] for k in alive},
        {k: tuple(reps_seen[k]) for k in alive},
    )


IN_APPROX = "InApprox"
CERTAINLY_OUT = "CertainlyOut"


def member_of_model(atom: Term, approx: Interpretation, sig: Signature) -> str:
    """Membership of a closed first-order or guarded atom in the
    approximated coinductive model."""
    key = atom_to_tree(sig, atom, approx.depth)
    return IN_APPROX if key in approx.atoms else CERTAINLY_OUT
