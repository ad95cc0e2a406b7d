#!/usr/bin/env python3
"""Print cup's observable outputs, so two checkouts can be compared byte
for byte.

    python3 tests/dump_outputs.py [SECTION ...] > outputs.txt

Run from any directory; it imports the `cup` of the checkout it sits in.
With no section named it prints every section, in the order of
`SECTIONS`. It re-runs itself under PYTHONHASHSEED=0, and nothing it
prints names a path of the checkout, so the outputs of two checkouts on
the same inputs are equal exactly when the programs answer alike:

    examples    stdout, stderr and exit code of `cup examples --run --json`
    cli         stdout, stderr and exit code of each row of test_cli.py's
                WORD_ROWS, runs that answer each result word, in text
                and in --json; the rows' scratch directory prints as $TMP
    model-cli   `cup model --json` of the five corpus programs at depths 2-4
    model-errors  stdout, stderr and exit code of `cup model --goal` at
                depths 0, 2 and 4 of three bitstream atoms that do not
                render as written; the parser beta-normalises the third
    audit       the audit reports of the four regression proofs at depths
                2-6 and word budgets 0-3
    search      reason, final bound, proof size, canonical steps, document
                and node count of every search of the search set and of
                the random Horn programs of seeds 0-359
    model       the model workload's queries of seeds 0-29: verdict and
                the approximation's listing
    refute      `refute`'s rank, or none, and the verdict `cup model`
                gives at depth 4, of test_trees.py's Baseline atoms, then
                the same at the query's depth for the model workload's
                queries of seeds 0-29
    check       check's (ok, diagnostic) on both mutation grids
    t-operator  T's listing over the gfp approximation and over the empty
                interpretation, of the five corpus programs at term sizes
                2-3 (fibs: 2) and depths 1-3
    pools       the pool's alpha keys, in order, of the five corpus
                programs at term sizes 1-4
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from cup import cli  # noqa: E402
from cup import engine as eng  # noqa: E402
from cup import parser as ps  # noqa: E402
from cup import soundness as sd  # noqa: E402
from cup import terms as tm  # noqa: E402
from cup import trees as tr  # noqa: E402

import test_cli  # noqa: E402
import test_trees  # noqa: E402
import test_differential as td  # noqa: E402
import workloads  # noqa: E402

CORPUS = ("member", "bitstream", "from", "comember", "fibs")


def _cli(argv: list[str]) -> str:
    """What `cup argv` prints and returns, run in process from the root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"$ cup {' '.join(argv)}\n{out.getvalue()}stderr: {err.getvalue()!r}\nexit {code}"


def examples():
    yield _cli(["examples", "--run", "--json"])


def cli_rows():
    with tempfile.TemporaryDirectory() as tmp:
        for _word, argv in test_cli.word_rows("src/cup/corpus", tmp):
            for flags in ([], ["--json"]):
                yield _cli(argv + flags).replace(tmp, "$TMP")


def model_cli():
    for name in CORPUS:
        for depth in (2, 3, 4):
            yield _cli(["model", "--program", f"src/cup/corpus/{name}.cup", "--model-depth", str(depth), "--json"])


def model_errors():
    program = "src/cup/corpus/bitstream.cup"
    for goal in ("bitstream (fix \\x. x)", "bitstream [0|fix \\x. x]", "bit ((\\x. x) 0)"):
        for depth in (0, 2, 4):
            yield _cli(["model", "--program", program, "--goal", goal, "--model-depth", str(depth)])


def audit():
    programs = workloads.load_programs()
    for name, (tree, calc) in workloads.find_regression_proofs(programs).items():
        for depth in range(2, 7):
            for budget in range(4):
                report = sd.audit_proof(tree, programs[name], depth, budget, calculus=calc)
                yield f"{name} {depth} {budget} " + json.dumps(report.to_dict(programs[name]), sort_keys=True)


def search():
    for programs, searches in ((workloads.load_programs(), td._search_set()), td._random_horn_searches(range(360))):
        outputs, nodes = td._search_outputs(programs, searches, documents=True)
        for (name, text, calc, kind, depth), out, n in zip(searches, outputs, nodes):
            yield json.dumps([name, text, calc.value, kind, depth, out, n])


def model():
    programs = workloads.load_programs()
    for seed in range(30):
        for q in workloads.blocks("model", seed, 1)[0]:
            program = programs[q.program]
            atom = ps.parse_goal(q.atom, program).term
            approx = tr.gfp_approx(program, q.depth, tr.InstanceConfig(seed_atoms=(atom,)))
            verdict = tr.member_of_model(atom, approx, program.signature)
            yield f"{seed} {q.program} {q.atom!r} {q.depth} {verdict}\n{tr.export_interpretation(approx)}"


def refute():
    programs = workloads.load_programs()
    rows = [(ps.parse_program(text), goal, 4) for text, goal, _rank in test_trees.BASELINE_RANKS]
    rows += [(programs[q.program], q.atom, q.depth)
             for seed in range(30) for q in workloads.blocks("model", seed, 1)[0]]
    for program, goal, depth in rows:
        atom = ps.parse_goal(goal, program).term
        approx = tr.gfp_approx(program, depth, tr.InstanceConfig(seed_atoms=(atom,)))
        rank = tr.refute(program, atom)
        yield f"{goal!r} {depth} {'none' if rank is None else rank} {tr.model_verdict(program, atom, approx)}"


def check():
    programs = workloads.load_programs()
    # `_mutation_grids` reads (program, goal, calculus, result) of each
    regressions = {name: (programs[name], None, calc, SimpleNamespace(tree=tree))
                   for name, (tree, calc) in workloads.find_regression_proofs(programs).items()}
    for program, calc, tree in td._mutation_grids(regressions):
        yield json.dumps([calc.value, *eng.check(tree, program, calc)])


def t_operator():
    programs = workloads.load_programs()
    for name in CORPUS:
        program = programs[name]
        # fibs at term size 3 costs several times all the other cases
        for size in (2,) if name == "fibs" else (2, 3):
            cfg = tr.InstanceConfig(term_size=size)
            for depth in (1, 2, 3):
                for label, over in (("gfp", tr.gfp_approx(program, depth, cfg)),
                                    ("empty", tr.Interpretation(depth, frozenset()))):
                    listing = tr.export_interpretation(tr.t_operator(program, over, cfg))
                    yield f"{name} {size} {depth} {label}\n{listing}"


def pools():
    programs = workloads.load_programs()
    for name in CORPUS:
        for size in (1, 2, 3, 4):
            pool = tr.universe_terms(programs[name], tr.InstanceConfig(term_size=size))
            yield f"{name} {size} " + json.dumps([tm.alpha_key(t) for t in pool])


SECTIONS = {"examples": examples, "cli": cli_rows, "model-cli": model_cli, "model-errors": model_errors, "audit": audit,
            "search": search, "model": model, "refute": refute, "check": check, "t-operator": t_operator,
            "pools": pools}


def main(names: list[str]) -> int:
    os.chdir(ROOT)
    unknown = [n for n in names if n not in SECTIONS]
    if unknown:
        print(f"unknown section {unknown[0]!r}; known: {', '.join(SECTIONS)}", file=sys.stderr)
        return 2
    for name in names or SECTIONS:
        print(f"## {name}")
        for line in SECTIONS[name]():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
