"""Coinductive uniform proving for Horn-clause logic.

Parse logic programs, classify formulae into the four calculi
(co-fohc / co-fohh / co-hohc / co-hohh), search for and check coinductive
proofs, approximate greatest-fixed-point models over infinite-tree atoms,
and audit proof soundness against those models.
"""

from .engine import (
    LemmaStore,
    ProofTree,
    SearchConfig,
    SearchOutcome,
    Sequent,
    check,
    coprove,
    promote_lemma,
    prove,
)
from .formulas import (
    Atom,
    Calculus,
    Conj,
    Disj,
    Exists,
    Forall,
    Formula,
    HClause,
    Impl,
    Program,
    Top,
    classify,
    ground_instances,
    to_h_clauses,
)
from .guardedness import (
    GuardReport,
    is_guarded_atom,
    is_guarded_fixed_point,
    is_guarded_full,
    snapshot,
)
from .parser import (
    export_proof,
    import_proof,
    parse_goal,
    parse_program,
    parse_term,
    pp_formula,
    pp_term,
)
from .soundness import (
    DeltaRecord,
    audit_proof,
    build_candidate,
    collect_deltas,
    conservative_extension_check,
    verify_postfixed,
)
from .terms import (
    Signature,
    Term,
    alpha_eq,
    beta_normalize,
    fixbeta_equiv,
    fixbeta_unfold,
    free_vars,
    is_first_order,
    substitute,
    subterms,
    typecheck,
    type_order,
)
from .trees import (
    InstanceConfig,
    Interpretation,
    Tree,
    atom_to_tree,
    distance,
    gfp_approx,
    member_of_model,
    t_operator,
    term_to_tree,
    truncate,
)

__version__ = "0.1.0"
