"""Executable soundness audit for coinductive proofs.

From a checked coinductive proof of an H-shaped core formula this module
extracts the substitutions made at each coinductive-hypothesis use, builds
the word-indexed candidate post-fixed point of the immediate consequence
operator, and verifies the post-fixed-point property at a fixed truncation
depth.  It also checks that adjoining proven lemma instances leaves the
approximated model unchanged (conservative extension).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import engine as eng
from . import formulas as fm
from . import terms as tm
from . import trees as tr
from .errors import (
    BodyNotInModel,
    MissingEigenvariableBinding,
    NotHShapedRoot,
    ProofInvalid,
)
from .formulas import Calculus, HClause, Program, formula_alpha_eq
from .terms import App, Con, Fix, Lam, Signature, Term, Var


@dataclass(frozen=True)
class DeltaRecord:
    """Substitution recorded at one coinductive-hypothesis use: each
    universal of the hypothesis bound to a guarded full term (which may
    mention eigenvariables)."""

    index: int
    bindings: tuple[tuple[str, Term], ...]


ThetaIndex = tuple[int, ...]


def replace_con(t: Term, name: str, value: Term) -> Term:
    """Substitute a term for a constant; eigenvariables are constants that
    the model construction treats as free variables."""
    if isinstance(t, Con):
        return value if t.name == name else t
    if isinstance(t, Var):
        return t
    if isinstance(t, App):
        return App(replace_con(t.fn, name, value), replace_con(t.arg, name, value))
    if isinstance(t, Lam):
        return Lam(t.var, replace_con(t.body, name, value))
    return Fix(replace_con(t.body, name, value))


def _root_h_clause(proof: eng.ProofTree) -> HClause:
    if proof.sequent.mode != eng.COINDUCTIVE or proof.rule != "co-fix":
        raise NotHShapedRoot("proof root is not a coinductive fixed-point step")
    hs = fm.to_h_clauses(proof.sequent.goal)
    if len(hs) != 1:
        raise NotHShapedRoot(f"coinductive goal splits into {len(hs)} H-formulae, expected exactly one")
    return hs[0]


def _root_eigens(proof: eng.ProofTree, m: int) -> list[str]:
    eigens: list[str] = []
    node = proof.children[0] if proof.children else None
    while node is not None and node.rule in ("forall-r<>", "forall-r") and len(eigens) < m:
        eigens.append(node.eigen)
        node = node.children[0] if node.children else None
    if len(eigens) != m:
        raise NotHShapedRoot(f"expected {m} universal steps at the root, found {len(eigens)}")
    return eigens


def collect_deltas(proof: eng.ProofTree, program: Program, calculus: Calculus = Calculus.HOHH) -> list[DeltaRecord]:
    """One record per DECIDE on the coinductive hypothesis, bindings read
    off the universal-instantiation chain at that site."""
    ok, diag = eng.check(proof, program, calculus)
    if not ok:
        raise ProofInvalid(f"proof does not check: {diag}")
    h = _root_h_clause(proof)
    ch = proof.sequent.goal
    records: list[DeltaRecord] = []
    for node in proof.nodes():
        if node.rule != "decide" or not node.children:
            continue
        focus = node.children[0].sequent.focus
        if focus is None or not formula_alpha_eq(focus, ch):
            continue
        entry_srcs = [
            e.src for e in node.sequent.entries if formula_alpha_eq(e.formula, focus)
        ]
        if eng.Src.COHYP not in entry_srcs:
            continue
        witnesses: list[Term] = []
        cur = node.children[0]
        while cur.rule in ("forall-l", "forall-l<>") and len(witnesses) < len(h.universals):
            witnesses.append(cur.witness)
            cur = cur.children[0]
        if len(witnesses) != len(h.universals):
            raise ProofInvalid("coinductive hypothesis use does not instantiate every universal")
        records.append(DeltaRecord(len(records) + 1, tuple(zip(h.universals, witnesses))))
    return records


# ---------------------------------------------------------------------------
# Theta: word-indexed eigenvariable substitutions
# ---------------------------------------------------------------------------


def guarded_term_to_tree(sig: Signature, t: Term, depth: int) -> tr.Tree:
    """Truncated tree of a first-order or guarded full term (eigenvariables
    render as leaves)."""
    if tm.is_first_order(sig, {}, t):
        return tr.truncate(tr.term_to_tree(sig, t), depth)
    budget = depth + 8
    u = tm.beta_normalize(t)
    from .guardedness import _snap_term  # shares the snapshot recursion

    for _ in range(budget + 1):
        snap = _snap_term(sig, u)
        tree = tr.term_to_tree(sig, snap)
        dmin = tr._diamond_min_depth(tree)
        if dmin is None or dmin >= depth:
            return tr.truncate(tree, depth)
        u = tm.fair_unfold(u)
    raise tr.DepthUnreachable(f"term {t!r} not determined to depth {depth}")


def theta_term(
    w: ThetaIndex,
    deltas: list[DeltaRecord],
    eigens: list[str],
    base_terms: dict[str, Term],
) -> dict[str, Term]:
    """Term-level form of the word-indexed substitution; the tree-level
    `theta` is its rendering at a truncation depth."""
    for c in eigens:
        if c not in base_terms:
            raise MissingEigenvariableBinding(f"no base term for eigenvariable {c}")
    if not w:
        return {c: base_terms[c] for c in eigens}
    prev = theta_term(w[:-1], deltas, eigens, base_terms)
    j = w[-1]
    if not 1 <= j <= len(deltas):
        raise MissingEigenvariableBinding(f"word index {j} has no delta record")
    out: dict[str, Term] = {}
    for c, (_x, l_term) in zip(eigens, deltas[j - 1].bindings):
        t = l_term
        for e in eigens:
            t = replace_con(t, e, prev[e])
        out[c] = tm.beta_normalize(t)
    return out


def theta(
    w: ThetaIndex,
    deltas: list[DeltaRecord],
    eigens: list[str],
    base: dict[str, tr.Tree],
    depth: int,
    sig: Signature,
) -> dict[str, tr.Tree]:
    """The substitution indexed by the word w: the base assignment for the
    empty word, otherwise each eigenvariable bound to the tree of the
    corresponding recorded binding with the shorter word's substitution
    grafted in, truncated at the given depth."""
    for c in eigens:
        if c not in base:
            raise MissingEigenvariableBinding(f"no base tree for eigenvariable {c}")
    if not w:
        return {c: tr.truncate(base[c], depth) for c in eigens}
    prev = theta(w[:-1], deltas, eigens, base, depth, sig)
    j = w[-1]
    if not 1 <= j <= len(deltas):
        raise MissingEigenvariableBinding(f"word index {j} has no delta record")
    out: dict[str, tr.Tree] = {}
    for c, (_x, l_term) in zip(eigens, deltas[j - 1].bindings):
        tree = guarded_term_to_tree(sig, l_term, depth)
        for e in eigens:
            tree = tr.tree_substitute(tree, e, prev[e])
        out[c] = tr.truncate(tree, depth)
    return out


# ---------------------------------------------------------------------------
# Candidate post-fixed point
# ---------------------------------------------------------------------------


def _words(s: int, budget: int) -> list[ThetaIndex]:
    out: list[ThetaIndex] = [()]
    frontier: list[ThetaIndex] = [()]
    for _ in range(budget):
        frontier = [w + (j,) for w in frontier for j in range(1, s + 1)]
        out.extend(frontier)
    return out


def _guarded_segment(proof: eng.ProofTree) -> tuple[eng.ProofTree, Optional[eng.ProofTree]]:
    """The guarded DECIDE node of the root derivation and, for rule-shaped
    clauses, the side subproof of its implication step (None for facts)."""
    node = proof.children[0]
    while node.rule in ("forall-r<>", "imp-r<>"):
        node = node.children[0]
    if node.rule != "decide<>":
        raise NotHShapedRoot(f"root derivation reaches {node.rule} instead of the guarded decide")
    decide = node
    node = node.children[0]
    while node.rule in ("forall-l<>", "and-l<>"):
        node = node.children[0]
    if node.rule == "initial<>":
        return decide, None
    if node.rule == "imp-l<>":
        return decide, node.children[1]
    raise NotHShapedRoot(f"unexpected rule {node.rule} under the guarded focus")


@dataclass
class Candidate:
    interpretation: tr.Interpretation
    side_atoms: list[Term]  # body instances that must come from a post-fixed point
    eigens: list[str]
    deltas: list[DeltaRecord]
    base_terms: dict[str, Term]
    word_budget: int


def _default_base(program: Program, sig: Signature, eigens: list[str], cfg: tr.InstanceConfig) -> dict[str, Term]:
    if not eigens:
        return {}
    pool = tr.universe_terms(program, tr.InstanceConfig(term_size=2, include_fix_defs=False), sig)
    if not pool:
        raise MissingEigenvariableBinding("signature has no closed individual terms for the base substitution")
    return {c: pool[0] for c in eigens}


def build_candidate(
    proof: eng.ProofTree,
    program: Program,
    depth: int,
    word_budget: int,
    base_terms: Optional[dict[str, Term]] = None,
    cfg: Optional[tr.InstanceConfig] = None,
    calculus: Calculus = Calculus.HOHH,
) -> Candidate:
    """Atoms of the root derivation's side subproof plus the coinductive
    conclusion, instantiated along every word up to the budget and rendered
    as depth-truncated trees; also the body instances that a supplied
    post-fixed point must cover."""
    cfg = cfg or tr.InstanceConfig()
    h = _root_h_clause(proof)
    deltas = collect_deltas(proof, program, calculus)
    eigens = _root_eigens(proof, len(h.universals))
    decide, side = _guarded_segment(proof)
    # once the word substitutions are applied, every atom is closed over the
    # base signature; eigenvariables never reach the model side
    sig = program.signature
    if base_terms is None:
        base_terms = _default_base(program, sig, eigens, cfg)

    atoms_c: list[Term] = [decide.sequent.goal.term]
    if side is not None:
        for node in side.nodes():
            if isinstance(node.sequent.goal, fm.Atom):
                t = node.sequent.goal.term
                if not any(tm.alpha_eq(t, u) for u in atoms_c):
                    atoms_c.append(t)

    atom_trees: set[tr.Tree] = set()
    reps: dict[tr.Tree, Term] = {}
    for w in _words(len(deltas), word_budget):
        th = theta_term(w, deltas, eigens, base_terms)
        for a in atoms_c:
            inst = a
            for e in eigens:
                inst = replace_con(inst, e, th[e])
            inst = tm.beta_normalize(inst)
            tree = tr.atom_to_tree(sig, inst, depth)
            atom_trees.add(tree)
            reps.setdefault(tree, inst)

    th0 = theta_term((), deltas, eigens, base_terms)
    side_atoms: list[Term] = []
    for b in h.body:
        inst = b
        for x, c in zip(h.universals, eigens):
            inst = tm.subst1(inst, x, Con(c))
        for e in eigens:
            inst = replace_con(inst, e, th0[e])
        side_atoms.append(tm.beta_normalize(inst))

    interp = tr.Interpretation(depth, frozenset(atom_trees), reps)
    return Candidate(interp, side_atoms, eigens, deltas, base_terms, word_budget)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_postfixed(
    interp: tr.Interpretation,
    program: Program,
    cfg: tr.InstanceConfig,
    extra_clauses: tuple[HClause, ...] = (),
    sig: Optional[Signature] = None,
) -> tuple[bool, Optional[Term]]:
    """Is every member a consequence of members (I included in T(I)) at this
    resolution?  Returns the first counterexample atom otherwise."""
    g = tr.grounding(program, cfg, interp.depth, extra_clauses, sig)
    for tree in sorted(interp.atoms, key=tr.tree_to_text):
        reps = interp.representatives(tree)
        if not reps:
            return False, None
        if all(tr.justify(rep, interp, g) is None for rep in reps):
            return False, reps[0]
    return True, None


def merge_with_model(
    cand: Candidate,
    program: Program,
    cfg: tr.InstanceConfig,
    sig: Optional[Signature] = None,
) -> tr.Interpretation:
    """Union the candidate with the model approximation standing in for the
    post-fixed point that covers the side body instances."""
    depth = cand.interpretation.depth
    seeds = tuple(cand.interpretation.reps.values()) + tuple(cand.side_atoms)
    approx = tr.gfp_approx(program, depth, replace(cfg, seed_atoms=seeds), sig=sig)
    atoms = cand.interpretation.atoms | approx.atoms
    reps = {**approx.reps, **cand.interpretation.reps}
    reps_all: dict[tr.Tree, tuple] = {}
    for key in atoms:
        merged: list = list(approx.representatives(key))
        for t in cand.interpretation.representatives(key):
            if not any(tm.alpha_eq(t, u) for u in merged):
                merged.append(t)
        reps_all[key] = tuple(merged)
    return tr.Interpretation(depth, frozenset(atoms), reps, reps_all)


@dataclass
class HarnessReport:
    uses: int
    deltas: list[DeltaRecord]
    depth: int
    word_budget: int
    verified: bool
    counterexample: Optional[Term]
    candidate_size: int
    merged_size: int

    def to_dict(self) -> dict:
        return {
            "coinductive_hypothesis_uses": self.uses,
            "deltas": [
                {"index": d.index, "bindings": [[x, repr(t)] for x, t in d.bindings]}
                for d in self.deltas
            ],
            "depth": self.depth,
            "word_budget": self.word_budget,
            "verified": self.verified,
            "counterexample": None if self.counterexample is None else repr(self.counterexample),
            "candidate_size": self.candidate_size,
            "merged_size": self.merged_size,
        }


def audit_proof(
    proof: eng.ProofTree,
    program: Program,
    depth: int,
    word_budget: int,
    cfg: Optional[tr.InstanceConfig] = None,
    calculus: Calculus = Calculus.HOHH,
    base_terms: Optional[dict[str, Term]] = None,
) -> HarnessReport:
    """End-to-end audit: extract, construct, merge, verify."""
    cfg = cfg or tr.InstanceConfig()
    cand = build_candidate(proof, program, depth, word_budget, base_terms, cfg, calculus)
    merged = merge_with_model(cand, program, cfg)
    ok, cex = verify_postfixed(merged, program, cfg)
    return HarnessReport(
        uses=len(cand.deltas),
        deltas=cand.deltas,
        depth=depth,
        word_budget=word_budget,
        verified=ok,
        counterexample=cex,
        candidate_size=len(cand.interpretation.atoms),
        merged_size=len(merged.atoms),
    )


# ---------------------------------------------------------------------------
# Conservative extension
# ---------------------------------------------------------------------------


@dataclass
class ExtensionReport:
    equal: bool
    only_in_original: frozenset
    only_in_extended: frozenset
    depth: int

    def __bool__(self) -> bool:
        return self.equal


def conservative_extension_check(
    program: Program,
    lemma_instances: list[HClause],
    depth: int,
    cfg: Optional[tr.InstanceConfig] = None,
) -> ExtensionReport:
    """Model approximations of the program and of the program extended with
    ground lemma instances must coincide at this resolution; instance bodies
    must already hold in the approximated model."""
    cfg = cfg or tr.InstanceConfig()
    sig = program.signature
    seeds = list(cfg.seed_atoms)
    for h in lemma_instances:
        if h.universals:
            raise BodyNotInModel(f"lemma instance {h} is not ground")
        seeds.append(h.head)
        seeds.extend(h.body)
    seeded = replace(cfg, seed_atoms=tuple(seeds))
    base = tr.gfp_approx(program, depth, seeded)
    for h in lemma_instances:
        for b in h.body:
            if tr.member_of_model(b, base, sig) != tr.IN_APPROX:
                raise BodyNotInModel(f"lemma instance body {b!r} is not in the approximated model")
    extended = tr.gfp_approx(program, depth, seeded, extra_clauses=tuple(lemma_instances))
    return ExtensionReport(
        equal=base.atoms == extended.atoms,
        only_in_original=base.atoms - extended.atoms,
        only_in_extended=extended.atoms - base.atoms,
        depth=depth,
    )
