"""Executable soundness audit for coinductive proofs.

From a checked coinductive proof of an H-shaped core formula this module
extracts the substitutions made at each coinductive-hypothesis use, builds
the word-indexed candidate post-fixed point of the immediate consequence
operator, and verifies the post-fixed-point property at a fixed truncation
depth.  It also checks that adjoining proven lemma instances leaves the
approximated model unchanged (conservative extension).
"""

from __future__ import annotations

from collections.abc import Iterator

from . import engine as eng
from . import formulas as fm
from . import parser as ps
from . import terms as tm
from . import trees as tr
from .errors import BodyNotInModel, MissingEigenvariableBinding, NotHShapedRoot, ProofInvalid
from .formulas import Calculus, HClause, Program, formula_alpha_eq
from .terms import Term, record, replace, replace_cons


@record
class DeltaRecord:
    """Substitution recorded at one coinductive-hypothesis use: each
    universal of the hypothesis bound to a guarded full term (which may
    mention eigenvariables)."""

    bindings: tuple[tuple[str, Term], ...]


def _root_h_clause(proof: eng.ProofTree) -> HClause:
    if proof.sequent.mode != eng.COINDUCTIVE or proof.rule != "co-fix":
        raise NotHShapedRoot("proof root is not a coinductive fixed-point step")
    hs = fm.to_h_clauses(proof.sequent.goal)
    if len(hs) != 1:
        raise NotHShapedRoot(f"coinductive goal splits into {len(hs)} H-formulae, expected exactly one")
    return hs[0]


def _walk_root(
    proof: eng.ProofTree, program: Program, calculus: Calculus
) -> tuple[HClause, tuple[list[str], eng.ProofTree, eng.ProofTree | None], list[DeltaRecord]]:
    """The root's H-clause, its guarded segment and one Delta record per
    DECIDE on the coinductive hypothesis, bindings read off the
    universal-instantiation chain at that site.  It fails on the root's
    clause, then the check, then the root derivation, then a hypothesis
    use, so a checked root whose universals are not all leading is blamed
    for that (`NotHShapedRoot`), not the uses under it."""
    h = _root_h_clause(proof)
    ok, diag = eng.check(proof, program, calculus)
    if not ok:
        raise ProofInvalid(f"proof does not check: {diag}")
    segment = _guarded_segment(proof, len(h.universals))
    ch = proof.sequent.goal
    records: list[DeltaRecord] = []
    for node in proof.nodes():
        if node.rule != "decide" or not node.children:
            continue
        focus = node.children[0].sequent.focus
        if focus is None or not formula_alpha_eq(focus, ch):
            continue
        if not any(e.src == eng.Src.COHYP and formula_alpha_eq(e.formula, focus) for e in node.sequent.entries):
            continue
        witnesses: list[Term] = []
        cur = node.children[0]
        while cur.rule in ("forall-l", "forall-l<>") and len(witnesses) < len(h.universals):
            witnesses.append(cur.witness)
            cur = cur.children[0]
        if len(witnesses) != len(h.universals):
            raise ProofInvalid("coinductive hypothesis use does not instantiate every universal")
        records.append(DeltaRecord(tuple(zip(h.universals, witnesses))))
    return h, segment, records


# ---------------------------------------------------------------------------
# Theta: word-indexed eigenvariable substitutions
# ---------------------------------------------------------------------------


def _thetas(
    deltas: list[DeltaRecord], eigens: list[str], base: dict[str, Term], budget: int
) -> Iterator[tuple[tuple[int, ...], dict[str, Term]]]:
    """Each word over the record numbers 1..len(deltas), up to the budget in
    length and shortest first, with the substitution it indexes: the base
    terms for the empty word; for the word wj, each eigenvariable bound to
    record j's binding with w's substitution put in for the eigenvariables,
    built once from w's.  Rendering one at a truncation depth gives the
    tree-level substitution."""
    level = [((), base)]
    yield from level
    for _ in range(budget):
        level = [
            (w + (j,), {c: tm.beta_normalize(replace_cons(t, th)) for c, (_x, t) in zip(eigens, d.bindings)})
            for w, th in level
            for j, d in enumerate(deltas, 1)
        ]
        yield from level


# ---------------------------------------------------------------------------
# Candidate post-fixed point
# ---------------------------------------------------------------------------


def _guarded_segment(proof: eng.ProofTree, m: int) -> tuple[list[str], eng.ProofTree, eng.ProofTree | None]:
    """The eigenvariables of the root derivation's m leading universal
    steps, its guarded DECIDE node and, for rule-shaped clauses, the side
    subproof of its implication step (None for facts)."""
    eigens: list[str] = []
    node = proof.children[0]
    while node.rule == "forall-r<>" and len(eigens) < m:
        eigens.append(node.eigen)
        node = node.children[0]
    if len(eigens) != m:
        raise NotHShapedRoot(f"expected {m} universal steps at the root, found {len(eigens)}")
    while node.rule in ("forall-r<>", "imp-r<>"):
        node = node.children[0]
    if node.rule != "decide<>":
        raise NotHShapedRoot(f"root derivation reaches {node.rule} instead of the guarded decide")
    decide = node
    node = node.children[0]
    while node.rule in ("forall-l<>", "and-l<>"):
        node = node.children[0]
    if node.rule == "initial<>":
        return eigens, decide, None
    if node.rule == "imp-l<>":
        return eigens, decide, node.children[1]
    raise NotHShapedRoot(f"unexpected rule {node.rule} under the guarded focus")


@record(frozen=False)
class Candidate:
    interpretation: tr.Interpretation
    side_atoms: tuple[Term, ...]  # body instances that must come from a post-fixed point
    deltas: list[DeltaRecord]
    eigenvariables: tuple[tuple[str, tm.SimpleType], ...] = ()  # the root derivation's, with their types


def _default_base(program: Program, eigens: list[str]) -> dict[str, Term]:
    if not eigens:
        return {}
    t = eng.smallest_closed_term(program.signature, tm.IOTA)
    if t is None:
        raise MissingEigenvariableBinding("signature has no closed individual terms for the base substitution")
    return {c: t for c in eigens}


def build_candidate(
    proof: eng.ProofTree,
    program: Program,
    depth: int,
    word_budget: int,
    calculus: Calculus = Calculus.HOHH,
) -> Candidate:
    """Atoms of the root derivation's side subproof plus the coinductive
    conclusion, instantiated along every word up to the budget and rendered
    as depth-truncated trees; also the body instances that a supplied
    post-fixed point must cover.  The atoms are rendered through the memo,
    not the keys, of a grounding at the default term size, which the
    interpretation carries to the merge."""
    h, (eigens, decide, side), deltas = _walk_root(proof, program, calculus)
    # once the word substitutions are applied, every atom is closed over the
    # base signature; eigenvariables never reach the model side
    sig = program.signature
    base = _default_base(program, eigens)

    # one atom per alpha key, the guarded goal's first
    goal = decide.sequent.goal.term
    atoms_c = {tm.alpha_key(goal): goal}
    if side is not None:
        for node in side.nodes():
            if isinstance(node.sequent.goal, fm.Atom):
                atoms_c.setdefault(tm.alpha_key(node.sequent.goal.term), node.sequent.goal.term)

    reps: dict[tr.Tree, tuple[Term, ...]] = {}
    g = tr.grounding(program, tr.InstanceConfig(), depth)
    # with no eigenvariables every word's substitution is the empty one
    for _w, th in _thetas(deltas, eigens, base, word_budget if eigens else 0):
        for a in atoms_c.values():
            inst = tm.beta_normalize(replace_cons(a, th))
            reps.setdefault(tr.atom_to_tree(sig, inst, depth, g.memo), (inst,))

    side_atoms = fm.h_substitute(h, {x: base[c] for x, c in zip(h.universals, eigens)}).body
    eigenvariables = tuple((c, decide.sequent.signature.lookup(c)) for c in eigens)
    return Candidate(tr.Interpretation(depth, frozenset(reps), reps, g), side_atoms, deltas, eigenvariables)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_postfixed(interp: tr.Interpretation, program: Program, cfg: tr.InstanceConfig) -> tuple[bool, Term | None]:
    """Is every member a consequence of members (I included in T(I)) at this
    resolution?  Returns the first counterexample atom otherwise.  The
    grounding, the interpretation's if `grounding` takes it, reads what
    `gfp_approx` kept for the term size."""
    g = tr.grounding(program, cfg, interp.depth, interp.grounding)
    for tree in sorted(interp.atoms, key=tr.tree_to_text):
        reps = interp.reps.get(tree, ())
        if not reps:
            return False, None
        if all(tr.justify(rep, interp, g) is None for rep in reps):
            return False, reps[0]
    return True, None


def merge_with_model(cand: Candidate, program: Program, cfg: tr.InstanceConfig) -> tr.Interpretation:
    """Union the candidate with the model approximation standing in for the
    post-fixed point that covers the side body instances.  A member keeps
    the approximation's representatives where the approximation keeps it,
    else the candidate's.  No candidate representative is lost: the
    approximation is seeded with every one, and `gfp_approx`'s worklist
    skips a seed only when an alpha-equal atom is already listed under its
    key, so a key the approximation keeps lists each of them.  It runs on
    the candidate's grounding if `grounding` takes it, reading its renders."""
    interp = cand.interpretation
    seeds = tuple(t for reps in interp.reps.values() for t in reps) + cand.side_atoms
    approx = tr.gfp_approx(program, interp.depth, replace(cfg, seed_atoms=seeds), interp.grounding)
    return replace(approx, atoms=interp.atoms | approx.atoms, reps={**interp.reps, **approx.reps})


@record(frozen=False)
class HarnessReport:
    uses: int
    deltas: list[DeltaRecord]
    depth: int
    word_budget: int
    verified: bool
    counterexample: Term | None
    candidate_size: int
    merged_size: int
    eigenvariables: tuple[tuple[str, tm.SimpleType], ...] = ()

    def to_dict(self, program: Program) -> dict:
        """The report with its terms in source syntax, as `pp_term` prints
        them for the program, and the eigenvariables they mention as a
        proof document's signature additions declare them."""
        return {
            "coinductive_hypothesis_uses": self.uses,
            "eigenvariables": [f"{n} : {ty!r}" for n, ty in self.eigenvariables],
            "deltas": [
                {"index": i, "bindings": [[x, ps.pp_term(t, program)] for x, t in d.bindings]}
                for i, d in enumerate(self.deltas, 1)
            ],
            "depth": self.depth,
            "word_budget": self.word_budget,
            "verified": self.verified,
            "counterexample": None if self.counterexample is None else ps.pp_term(self.counterexample, program),
            "candidate_size": self.candidate_size,
            "merged_size": self.merged_size,
        }


def audit_proof(
    proof: eng.ProofTree,
    program: Program,
    depth: int,
    word_budget: int,
    calculus: Calculus = Calculus.HOHH,
) -> HarnessReport:
    """End-to-end audit: extract, construct, merge, verify."""
    cfg = tr.InstanceConfig()
    cand = build_candidate(proof, program, depth, word_budget, calculus)
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
        eigenvariables=cand.eigenvariables,
    )


# ---------------------------------------------------------------------------
# Conservative extension
# ---------------------------------------------------------------------------


@record(frozen=False)
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
) -> ExtensionReport:
    """Model approximations of the program and of the program extended with
    ground lemma instances must coincide at this resolution; instance bodies
    must already hold in the approximated model."""
    sig = program.signature
    seeds: list[Term] = []
    for h in lemma_instances:
        if h.universals:
            raise BodyNotInModel(f"lemma instance {h} is not ground")
        seeds.append(h.head)
        seeds.extend(h.body)
    seeded = tr.InstanceConfig(seed_atoms=tuple(seeds))
    base = tr.gfp_approx(program, depth, seeded)
    for h in lemma_instances:
        for b in h.body:
            if tr.member_of_model(b, base, sig) != tr.IN_APPROX:
                raise BodyNotInModel(f"lemma instance body {tm.brief(b)} is not in the approximated model")
    # explored as its own program, whose universe is dropped with it
    lemmas = tuple(h.to_formula() for h in lemma_instances)
    extended = tr.gfp_approx(replace(program, clauses=program.clauses + lemmas), depth, seeded)
    return ExtensionReport(
        equal=base.atoms == extended.atoms,
        only_in_original=base.atoms - extended.atoms,
        only_in_extended=extended.atoms - base.atoms,
        depth=depth,
    )
