"""Command-line front end.

Exit codes: 0 success / proof found / verified, 1 definite failure,
2 inconclusive within the configured resource bounds, 3 usage or parse
errors.  Defaults can be overridden by CUP_* environment variables;
explicit flags take precedence.  Each subcommand takes only the flags it
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine as eng
from . import formulas as fm
from . import parser as ps
from . import terms as tm
from .errors import CupError, NotHShapedRoot, ParseError, UniverseTooLarge, UsageError
from .formulas import Calculus

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# each search reason's verdict, exit code and text; a proof's text is its own
_VERDICTS = {
    "proved": ("proved", EXIT_OK, None),
    "depth-exceeded": ("inconclusive", EXIT_INCONCLUSIVE, "inconclusive: the depth bound was reached on some branch.\n"
                       "This can mean the goal needs a more general coinductive hypothesis,\n"
                       "or that the property lies outside the four calculi (see README)."),
    "no-proof": ("no-proof", EXIT_FAIL, "no proof: the finite search space is exhausted"),
}

# flag, environment variable, default (an int default makes an int setting),
# least value and help; SearchConfig checks the depth's least, 1, itself
SETTINGS = {
    "calculus": ("--calculus", "CUP_CALCULUS", None, None, "co-fohc | co-fohh | co-hohc | co-hohh"),
    "depth": ("--depth", "CUP_DEPTH", eng.DEPTH_LIMIT, None, "search depth limit"),
    "fixbeta_bound": ("--fixbeta-bound", "CUP_FIXBETA_BOUND", tm.UNFOLD_BOUND, 0, "fix unfolding bound"),
    "model_depth": ("--model-depth", "CUP_MODEL_DEPTH", 4, 0, "tree truncation depth"),
    "word_budget": ("--word-budget", "CUP_WORD_BUDGET", 3, 0, "candidate word budget"),
    "emit_proof": ("--emit-proof", None, None, None, "write the found proof document here"),
}


def _setting(args, name: str):
    flag, var, default, least, _help = SETTINGS[name]
    value, source = getattr(args, name), flag
    if value is None:
        env = os.environ.get(var, "") if var else ""
        if not env:
            return default
        if not isinstance(default, int):
            return env
        source = var
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"{var}={env!r} is not an integer") from None
    if least is not None and value < least:
        raise UsageError(f"{source} must be >= {least}, got {value}")
    return value


def _file(path: str, text: str | None = None) -> str | None:
    """Read the file an option names, or write text to it: a usage error if
    it cannot be opened or its text is not UTF-8."""
    try:
        with open(path, "r" if text is None else "w", encoding="utf-8") as fh:
            if text is None:
                return fh.read()
            fh.write(text)
    except OSError as exc:
        raise UsageError(str(exc)) from None
    except UnicodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _emit(args, payload: dict, text: str) -> None:
    try:
        print(json.dumps(payload, indent=1) if args.json else text, flush=True)
    except BrokenPipeError:
        # the reader closed early: the exit code stands, and what the
        # interpreter flushes at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _calculus(args) -> Calculus:
    name = _setting(args, "calculus")
    if name is None:
        raise UsageError("--calculus is required (or set CUP_CALCULUS)")
    return Calculus.parse(name)


def _search_config(args) -> eng.SearchConfig:
    return eng.SearchConfig(_calculus(args), _setting(args, "depth"), _setting(args, "fixbeta_bound"))


def _report_search(args, outcome: eng.SearchOutcome, program: fm.Program) -> int:
    verdict, code, text = _VERDICTS[outcome.reason]
    stats = {"nodes_expanded": outcome.stats.nodes, "max_depth": outcome.stats.max_depth}
    payload = {"result": verdict, "stats": stats}
    if outcome.proved:
        doc = ps.export_proof(outcome.tree, program)
        payload["proof_nodes"] = outcome.tree.size()
        text = f"proved ({outcome.tree.size()} nodes; {stats['nodes_expanded']} expansions)"
        emit = _setting(args, "emit_proof")
        if emit:
            _file(emit, doc + "\n")
            text += f"\nproof written to {emit}"
        elif not args.json:
            text += "\n" + doc
    _emit(args, payload, text)
    return code


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check_syntax(args) -> int:
    program = ps.parse_program(_file(args.program))
    payload = {
        "constants": {n: repr(t) for n, t in program.signature.constants},
        "fix_definitions": [n for n, _ in program.fix_definitions],
        "clauses": [ps.pp_formula(c, program) for c in program.clauses],
    }
    _emit(args, payload, f"ok: {len(program.clauses)} clauses, "
          f"{len(program.fix_definitions)} fix definitions, "
          f"{len(program.signature.constants)} constants")
    return EXIT_OK


def cmd_classify(args) -> int:
    program = ps.parse_program(_file(args.program))
    f = ps.parse_goal(args.goal, program)
    members = fm.classify(program.signature, f, args.role)
    names = sorted(c.value for c in members)
    _emit(args, {"role": args.role, "fragments": names}, f"{args.role}: {', '.join(names) or '(none)'}")
    return EXIT_OK


def cmd_coprove(args) -> int:
    program = ps.parse_program(_file(args.program))
    goal = ps.parse_goal(args.goal, program)
    outcome = eng.coprove(program, goal, _search_config(args))
    return _report_search(args, outcome, program)


def cmd_prove(args) -> int:
    program = ps.parse_program(_file(args.program))
    goal = ps.parse_goal(args.goal, program)
    config = _search_config(args)
    store = eng.LemmaStore()
    for path in args.use_lemma or []:
        proof = ps.import_proof(_file(path), program)
        hs = fm.to_h_clauses(proof.sequent.goal)
        if len(hs) != 1:
            raise NotHShapedRoot(f"lemma proof in {path} is not H-shaped")
        store = eng.promote_lemma(program, hs[0], proof, store, config.fixbeta_bound)
    outcome = eng.prove(program, store, goal, config)
    return _report_search(args, outcome, program)


def cmd_check_proof(args) -> int:
    program = ps.parse_program(_file(args.program))
    tree = ps.import_proof(_file(args.proof), program)
    ok, diag = eng.check(tree, program, _calculus(args), _setting(args, "fixbeta_bound"))
    if ok:
        lemmas = [ps.pp_formula(f, program) for f in eng.assumed_lemmas(tree)]
        text = f"valid proof ({tree.size()} nodes)"
        if lemmas:
            _emit(args, {"result": "inconclusive", "nodes": tree.size(), "assumed_lemmas": lemmas},
                  f"inconclusive: {text} assuming {len(lemmas)} unproven root lemma(s):\n"
                  + "\n".join(f"  {f}" for f in lemmas))
            return EXIT_INCONCLUSIVE
        _emit(args, {"result": "valid", "nodes": tree.size()}, text)
        return EXIT_OK
    _emit(args, {"result": "invalid", "diagnostic": diag}, f"invalid proof: {diag}")
    return EXIT_FAIL


def cmd_model(args) -> int:
    from . import trees as tr

    program = ps.parse_program(_file(args.program))
    depth = _setting(args, "model_depth")
    goal_atom: tm.Term | None = None
    if args.goal:
        f = ps.parse_goal(args.goal, program)
        if not isinstance(f, fm.Atom):
            raise UsageError("model membership queries take a single atom")
        goal_atom = f.term
    seeds = () if goal_atom is None else (goal_atom,)
    approx = tr.gfp_approx(program, depth, tr.InstanceConfig(seed_atoms=seeds))
    caveat = ("membership is evidence at this truncation depth over a bounded universe; "
              "absence certifies non-membership over that universe")
    if goal_atom is None:
        listing = tr.export_interpretation(approx)
        _emit(args, {"depth": depth, "atoms": sorted(tr.tree_to_text(t) for t in approx.atoms),
                     "caveat": caveat}, listing + caveat)
        return EXIT_OK
    verdict = tr.member_of_model(goal_atom, approx, program.signature)
    _emit(args, {"depth": depth, "verdict": verdict, "caveat": caveat}, f"{verdict} (depth {depth}; {caveat})")
    return EXIT_OK if verdict == tr.IN_APPROX else EXIT_FAIL


def cmd_soundness(args) -> int:
    from . import soundness as sd

    program = ps.parse_program(_file(args.program))
    proof = ps.import_proof(_file(args.proof), program)
    report = sd.audit_proof(proof, program, _setting(args, "model_depth"), _setting(args, "word_budget"))
    payload = report.to_dict(program)
    lines = [
        f"coinductive hypothesis uses: {report.uses}",
        f"depth {report.depth}, word budget {report.word_budget}",
        f"candidate atoms: {report.candidate_size}, merged with model approximation: {report.merged_size}",
        f"post-fixed point verified: {report.verified}",
    ]
    if report.counterexample is not None:
        lines.append(f"counterexample atom: {ps.pp_term(report.counterexample, program)}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.verified else EXIT_FAIL


CORPUS = {
    "member": {
        "file": "member.cup",
        "runs": [
            ("coprove", "member 0 [0|nil]", Calculus.FOHC, "proved"),
        ],
    },
    "bitstream": {
        "file": "bitstream.cup",
        "runs": [
            ("coprove", "bitstream [0|n_str 0]", Calculus.HOHC, "proved"),
        ],
    },
    "from": {
        "file": "from.cup",
        "runs": [
            ("coprove", "forall x. from x (fr_str x)", Calculus.HOHH, "proved"),
            ("coprove", "from 0 (fr_str 0)", Calculus.HOHC, "inconclusive"),
        ],
    },
    "comember": {
        "file": "comember.cup",
        "runs": [
            ("coprove", "forall y s. bit y => comember_bit y s", Calculus.FOHH, "proved"),
        ],
    },
    "fibs": {
        "file": "fibs.cup",
        "runs": [
            ("coprove", "forall x y z. add x y z => fibs x y (fib_str x y)", Calculus.HOHH, "inconclusive"),
        ],
    },
}


def corpus_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "corpus", name)


def cmd_examples(args) -> int:
    if args.name and args.name not in CORPUS:
        raise UsageError(f"unknown example {args.name!r}; known: {', '.join(CORPUS)}")
    names = [args.name] if args.name else list(CORPUS)
    if args.list or not (args.run or args.name):
        payload = {
            n: {"file": CORPUS[n]["file"], "runs": [(r[0], r[1], r[2].value, r[3]) for r in CORPUS[n]["runs"]]}
            for n in names
        }
        text = "\n".join(
            f"{n}: {CORPUS[n]['file']}\n" + "\n".join(
                f"  {kind} --calculus {calc.value} \"{goal}\"  (expected: {want})"
                for kind, goal, calc, want in CORPUS[n]["runs"]
            )
            for n in names
        )
        _emit(args, payload, text)
        return EXIT_OK
    results = {}
    depth = _setting(args, "depth")
    for n in names:
        program = ps.parse_program(_file(corpus_path(CORPUS[n]["file"])))
        for kind, goal_text, calc, want in CORPUS[n]["runs"]:
            goal = ps.parse_goal(goal_text, program)
            limit = min(depth, eng.INCONCLUSIVE_DEPTH_LIMIT) if want == "inconclusive" else depth
            outcome = eng.coprove(program, goal, eng.SearchConfig(calc, limit))
            got = _VERDICTS[outcome.reason][0]
            results[f"{n}: {kind} {goal_text}"] = {"expected": want, "got": got, "ok": got == want}
    text = "\n".join(
        f"[{'PASS' if v['ok'] else 'FAIL'}] {k} -> {v['got']} (expected {v['expected']})"
        for k, v in results.items()
    )
    _emit(args, results, text)
    return EXIT_OK if all(v["ok"] for v in results.values()) else EXIT_FAIL


# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cup", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *settings, program=True, goal=False, proof=False):
        if program:
            p.add_argument("--program", required=True, help="path to a .cup program file")
        if goal:
            p.add_argument("--goal", required=goal == "required", help="goal formula text")
        if proof:
            p.add_argument("--proof", required=True, help="path to a proof document")
        for name in settings:
            flag, _var, default, _least, help_ = SETTINGS[name]
            p.add_argument(flag, dest=name, type=int if isinstance(default, int) else None, help=help_)
        p.add_argument("--json", action="store_true", help="machine-readable output")

    search = ("calculus", "depth", "fixbeta_bound", "emit_proof")

    p = sub.add_parser("check-syntax", help="parse and validate a program")
    common(p)
    p.set_defaults(fn=cmd_check_syntax)

    p = sub.add_parser("classify", help="fragment membership of a formula")
    common(p, goal="required")
    p.add_argument("--role", choices=["clause", "goal", "core"], default="goal")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("prove", help="uniform proof search")
    common(p, *search, goal="required")
    p.add_argument("--use-lemma", action="append", help="proof document of a lemma to promote first")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("coprove", help="coinductive proof search")
    common(p, *search, goal="required")
    p.set_defaults(fn=cmd_coprove)

    p = sub.add_parser("check-proof", help="check a proof document")
    common(p, "calculus", "fixbeta_bound", proof=True)
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("model", help="greatest-fixed-point approximation and membership")
    common(p, "model_depth", goal=True)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("soundness", help="audit a coinductive proof against the model")
    common(p, "model_depth", "word_budget", proof=True)
    p.set_defaults(fn=cmd_soundness)

    p = sub.add_parser("examples", help="list or run the shipped example corpus")
    common(p, "depth", program=False)
    p.add_argument("--list", action="store_true", help="list entries without running")
    p.add_argument("--run", action="store_true", help="run the corpus")
    p.add_argument("--name", help="restrict to one example")
    p.set_defaults(fn=cmd_examples)
    return top


def _parse(argv: list[str] | None):
    """The options, or the exit code of argparse's exit: 0 after --help, 3 on a bad flag."""
    try:
        return build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if isinstance(args := _parse(argv), int):
        return args
    try:
        return args.fn(args)
    except ParseError as exc:
        where = f" at {exc.span[0]}:{exc.span[1]}" if exc.span else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UniverseTooLarge as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except CupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
