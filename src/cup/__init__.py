"""Coinductive uniform proving for Horn-clause logic.

Parse logic programs, classify formulae into the four calculi
(co-fohc / co-fohh / co-hohc / co-hohh), search for and check coinductive
proofs, approximate greatest-fixed-point models over infinite-tree atoms,
and audit proof soundness against those models.
"""

# the names the package exports, by the module that defines them; each is
# imported with its module on first use, so that `import cup.cli` loads
# only what a subcommand runs
_EXPORTS = {
    "engine": ("LemmaStore", "ProofTree", "SearchConfig", "SearchOutcome", "Sequent", "check", "coprove",
               "promote_lemma", "prove"),
    "formulas": ("Atom", "Calculus", "Conj", "Disj", "Exists", "Forall", "Formula", "HClause", "Impl", "Program",
                 "Top", "classify", "to_h_clauses"),
    "guardedness": ("GuardReport", "is_guarded_atom", "is_guarded_fixed_point", "snapshot"),
    "parser": ("export_proof", "import_proof", "parse_goal", "parse_program", "parse_term", "pp_formula",
               "pp_term"),
    "soundness": ("DeltaRecord", "audit_proof", "build_candidate", "conservative_extension_check", "verify_postfixed"),
    "terms": ("Signature", "Term", "alpha_eq", "beta_normalize", "fixbeta_equiv", "fixbeta_unfold", "free_vars",
              "is_first_order", "substitute", "subterms", "typecheck", "type_order"),
    "trees": ("InstanceConfig", "Interpretation", "Tree", "atom_to_tree", "distance", "gfp_approx",
              "member_of_model", "t_operator", "term_to_tree", "truncate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    # any other name raises, so that `from cup import engine` imports it
    if name not in _HOME:
        raise AttributeError(f"module 'cup' has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"cup.{_HOME[name]}"), name)
