"""Command-line front end.

Exit codes: 0 success / proof found / verified, 1 definite failure,
2 inconclusive within the configured resource bounds, 3 usage or parse
errors.  Defaults can be overridden by CUP_* environment variables;
explicit flags take precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from typing import Optional

from . import engine as eng
from . import formulas as fm
from . import parser as ps
from . import soundness as sd
from . import terms as tm
from . import trees as tr
from .errors import CupError, ParseError, UniverseTooLarge, UsageError
from .formulas import Calculus

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

DEFAULTS = {"depth": 32, "fixbeta_bound": 8, "model_depth": 4, "word_budget": 3}
ENV = {
    "depth": "CUP_DEPTH",
    "fixbeta_bound": "CUP_FIXBETA_BOUND",
    "model_depth": "CUP_MODEL_DEPTH",
    "word_budget": "CUP_WORD_BUDGET",
    "calculus": "CUP_CALCULUS",
}


def _setting(args, name: str):
    value = getattr(args, name, None)
    if value is not None:
        return value
    env = os.environ.get(ENV.get(name, ""), "")
    if env:
        if name == "calculus":
            return env
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{ENV[name]}={env!r} is not an integer") from None
    return DEFAULTS.get(name)


def _load_program(path: str) -> fm.Program:
    with open(path, "r", encoding="utf-8") as fh:
        return ps.parse_program(fh.read())


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def _calculus(args) -> Calculus:
    name = _setting(args, "calculus")
    if name is None:
        raise CupError("--calculus is required (or set CUP_CALCULUS)")
    return Calculus.parse(name)


def _search_config(args) -> eng.SearchConfig:
    return eng.SearchConfig(
        calculus=_calculus(args),
        depth_limit=_setting(args, "depth"),
        fixbeta_bound=_setting(args, "fixbeta_bound"),
    )


def _instance_config(extra_seeds=()) -> tr.InstanceConfig:
    return tr.InstanceConfig(seed_atoms=tuple(extra_seeds))


def _report_search(args, outcome: eng.SearchOutcome, program: fm.Program) -> int:
    stats = {"nodes_expanded": outcome.stats.nodes, "max_depth": outcome.stats.max_depth}
    if outcome.proved:
        doc = ps.export_proof(outcome.tree, program)
        if getattr(args, "emit_proof", None):
            with open(args.emit_proof, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        payload = {"result": "proved", "stats": stats, "proof_nodes": outcome.tree.size()}
        text = f"proved ({outcome.tree.size()} nodes; {stats['nodes_expanded']} expansions)"
        if getattr(args, "emit_proof", None):
            text += f"\nproof written to {args.emit_proof}"
        elif not getattr(args, "json", False):
            text += "\n" + doc
        _emit(args, payload, text)
        return EXIT_OK
    if outcome.reason == "depth-exceeded":
        payload = {"result": "inconclusive", "stats": stats}
        _emit(
            args,
            payload,
            "inconclusive: the depth bound was reached on some branch.\n"
            "This can mean the goal needs a more general coinductive hypothesis,\n"
            "or that the property lies outside the four calculi (see README).",
        )
        return EXIT_INCONCLUSIVE
    _emit(args, {"result": "no-proof", "stats": stats}, "no proof: the finite search space is exhausted")
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check_syntax(args) -> int:
    program = _load_program(args.program)
    payload = {
        "constants": {n: ps.pp_type(t) for n, t in program.signature.constants},
        "fix_definitions": [n for n, _ in program.fix_definitions],
        "clauses": [ps.pp_formula(c, program) for c in program.clauses],
    }
    _emit(args, payload, f"ok: {len(program.clauses)} clauses, "
          f"{len(program.fix_definitions)} fix definitions, "
          f"{len(program.signature.constants)} constants")
    return EXIT_OK


def cmd_classify(args) -> int:
    program = _load_program(args.program)
    f = ps.parse_goal(args.goal, program)
    members = fm.classify(program.signature, f, args.role)
    names = sorted(c.value for c in members)
    _emit(args, {"role": args.role, "fragments": names}, f"{args.role}: {', '.join(names) or '(none)'}")
    return EXIT_OK


def cmd_coprove(args) -> int:
    program = _load_program(args.program)
    goal = ps.parse_goal(args.goal, program)
    outcome = eng.coprove(program, goal, _search_config(args))
    return _report_search(args, outcome, program)


def cmd_prove(args) -> int:
    program = _load_program(args.program)
    goal = ps.parse_goal(args.goal, program)
    store = eng.LemmaStore()
    for path in args.use_lemma or []:
        with open(path, "r", encoding="utf-8") as fh:
            proof = ps.import_proof(fh.read(), program)
        hs = fm.to_h_clauses(proof.sequent.goal)
        if len(hs) != 1:
            raise CupError(f"lemma proof in {path} is not H-shaped")
        store = eng.promote_lemma(program, hs[0], proof, store)
    outcome = eng.prove(program, store, goal, _search_config(args))
    return _report_search(args, outcome, program)


def cmd_check_proof(args) -> int:
    program = _load_program(args.program)
    with open(args.proof, "r", encoding="utf-8") as fh:
        tree = ps.import_proof(fh.read(), program)
    ok, diag = eng.check(tree, program, _calculus(args), _setting(args, "fixbeta_bound"))
    if ok:
        _emit(args, {"result": "valid", "nodes": tree.size()}, f"valid proof ({tree.size()} nodes)")
        return EXIT_OK
    _emit(args, {"result": "invalid", "diagnostic": diag}, f"invalid proof: {diag}")
    return EXIT_FAIL


def cmd_model(args) -> int:
    program = _load_program(args.program)
    depth = _setting(args, "model_depth")
    seeds = []
    goal_atom: Optional[tm.Term] = None
    if args.goal:
        f = ps.parse_goal(args.goal, program)
        if not isinstance(f, fm.Atom):
            raise CupError("model membership queries take a single atom")
        goal_atom = f.term
        seeds.append(goal_atom)
    approx = tr.gfp_approx(program, depth, _instance_config(seeds))
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
    program = _load_program(args.program)
    with open(args.proof, "r", encoding="utf-8") as fh:
        proof = ps.import_proof(fh.read(), program)
    depth = _setting(args, "model_depth")
    budget = _setting(args, "word_budget")
    report = sd.audit_proof(proof, program, depth, budget)
    payload = report.to_dict()
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
    ref = resources.files("cup") / "corpus" / name
    return str(ref)


def load_corpus_program(name: str) -> fm.Program:
    text = (resources.files("cup") / "corpus" / CORPUS[name]["file"]).read_text(encoding="utf-8")
    return ps.parse_program(text)


def cmd_examples(args) -> int:
    if args.name and args.name not in CORPUS:
        raise CupError(f"unknown example {args.name!r}; known: {', '.join(CORPUS)}")
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
    all_as_expected = True
    depth = _setting(args, "depth")
    for n in names:
        program = load_corpus_program(n)
        for kind, goal_text, calc, want in CORPUS[n]["runs"]:
            goal = ps.parse_goal(goal_text, program)
            cfg = eng.SearchConfig(calculus=calc, depth_limit=min(depth, 12) if want == "inconclusive" else depth)
            outcome = eng.coprove(program, goal, cfg)
            got = {"proved": "proved", "depth-exceeded": "inconclusive", "no-proof": "no-proof"}[outcome.reason]
            ok = got == want
            all_as_expected &= ok
            results[f"{n}: {kind} {goal_text}"] = {"expected": want, "got": got, "ok": ok}
    text = "\n".join(
        f"[{'PASS' if v['ok'] else 'FAIL'}] {k} -> {v['got']} (expected {v['expected']})"
        for k, v in results.items()
    )
    _emit(args, results, text)
    return EXIT_OK if all_as_expected else EXIT_FAIL


# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cup", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, program=True, calculus=False, goal=False, proof=False):
        if program:
            p.add_argument("--program", required=True, help="path to a .cup program file")
        if calculus:
            p.add_argument("--calculus", help="co-fohc | co-fohh | co-hohc | co-hohh")
        if goal:
            p.add_argument("--goal", required=goal == "required", help="goal formula text")
        if proof:
            p.add_argument("--proof", required=True, help="path to a proof document")
        p.add_argument("--depth", type=int, help="search depth limit")
        p.add_argument("--fixbeta-bound", dest="fixbeta_bound", type=int, help="fix unfolding bound")
        p.add_argument("--model-depth", dest="model_depth", type=int, help="tree truncation depth")
        p.add_argument("--word-budget", dest="word_budget", type=int, help="candidate word budget")
        p.add_argument("--emit-proof", dest="emit_proof", help="write the found proof document here")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check-syntax", help="parse and validate a program")
    common(p)
    p.set_defaults(fn=cmd_check_syntax)

    p = sub.add_parser("classify", help="fragment membership of a formula")
    common(p, goal="required")
    p.add_argument("--role", choices=["clause", "goal", "core"], default="goal")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("prove", help="uniform proof search")
    common(p, calculus=True, goal="required")
    p.add_argument("--use-lemma", action="append", help="proof document of a lemma to promote first")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("coprove", help="coinductive proof search")
    common(p, calculus=True, goal="required")
    p.set_defaults(fn=cmd_coprove)

    p = sub.add_parser("check-proof", help="check a proof document")
    common(p, calculus=True, proof=True)
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("model", help="greatest-fixed-point approximation and membership")
    common(p, goal=True)
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("soundness", help="audit a coinductive proof against the model")
    common(p, proof=True)
    p.set_defaults(fn=cmd_soundness)

    p = sub.add_parser("examples", help="list or run the shipped example corpus")
    common(p, program=False)
    p.add_argument("--list", action="store_true", help="list entries without running")
    p.add_argument("--run", action="store_true", help="run the corpus")
    p.add_argument("--name", help="restrict to one example")
    p.set_defaults(fn=cmd_examples)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    top = build_arg_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        where = f" at {exc.span[0]}:{exc.span[1]}" if exc.span else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UniverseTooLarge as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (CupError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
