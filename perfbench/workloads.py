"""Seeded inputs, operations and known answers for the three workloads.

Every workload is a sequence of blocks. A block is a fixed list of slots
(goal families, audit cells, query classes), each with the shape that
sets its cost: list and prefix lengths, depths, budgets, members or
non-members. The seed only fills in what does not change the cost (which
bit, which tail, which of two like goals) and shuffles the order. So a
run's mix, and with it ops/s and the percentiles, does not depend on which
seed drew it.

The operations call the same public functions as the `cup` subcommands,
through this module's own `ps`/`eng`/`gd`/`tr`/`sd` aliases, which the
tracer swaps for proxies during a traced pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import cup
from cup import cli
from cup import engine as eng
from cup import formulas as fm
from cup import guardedness as gd
from cup import parser as ps
from cup import soundness as sd
from cup import terms as tm
from cup import trees as tr
from cup.errors import CupError
from cup.formulas import Calculus

# The acceptance gate's circular-membership program; the regression proof
# of size 13 is found over it, not over the corpus member.cup.
MEMBER_67 = """
const 0 : i. const nil : i. const scons : i -> i -> i.
const member : i -> i -> o. const eq : i -> i -> o.
member X [Y|T] :- member X [Y|T], eq X Y.
eq X X.
"""

# (program, goal, calculus, proof size) of the acceptance gate's four
# regression proofs.
REGRESSIONS = (
    ("member67", "member 0 [0|nil]", Calculus.FOHC, 13),
    ("bitstream", "bitstream [0|n_str 0]", Calculus.HOHC, 11),
    ("from", "forall x. from x (fr_str x)", Calculus.HOHH, 10),
    ("comember", "forall y s. bit y => comember_bit y s", Calculus.FOHH, 19),
)

# An audit block: (proof, depth, word budget) cells of the acceptance
# grid. from and comember cost 0.4 to 2.7 s a cell (the others 0.04 to
# 0.5 s), so they come only at their cheapest depths: a round of the block
# then takes about 4 s and a run executes it about seven times (see
# run.py). The budgets are fixed too, because they move a bitstream cell's
# cost by up to 30 %. An odd number of cells puts the median execution in
# the middle of one cell's executions, not between two cells of unlike
# cost.
AUDIT_CELLS = (
    ("member67", 2, 0), ("member67", 6, 3),
    ("bitstream", 2, 0), ("bitstream", 3, 1), ("bitstream", 4, 2), ("bitstream", 4, 0),
    ("bitstream", 5, 3), ("bitstream", 6, 1),
    ("from", 2, 1), ("from", 3, 3),
    ("comember", 2, 2),
)

# Search depths of the goals built not to be proved: deep enough to show
# the search is still going, shallow enough to cost tens of milliseconds.
NEGATIVE_DEPTH = 12
INCONCLUSIVE_DEPTH = 10
EXAMPLES_DEPTH = 32  # the CLI's default --depth

PROVED = "proved"  # must prove, round-trip and re-check
INCONCLUSIVE = "inconclusive"  # true in the model but out of reach: depth-exceeded only
UNPROVABLE = "unprovable"  # false: anything but a proof


class Failure(Exception):
    """An operation's answer contradicts the answer known by construction."""


def load_programs() -> dict[str, fm.Program]:
    corpus = Path(cup.__file__).parent / "corpus"
    out = {name: ps.parse_program((corpus / entry["file"]).read_text(encoding="utf-8"))
           for name, entry in cli.CORPUS.items()}
    out["member67"] = ps.parse_program(MEMBER_67)
    return out


# ---------------------------------------------------------------------------
# search: parse_goal -> coprove/prove -> export_proof -> import_proof -> check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Goal:
    family: str
    program: str
    text: str
    calculus: Calculus
    kind: str  # "coprove" | "prove"
    depth: int
    want: str
    size: Optional[int] = None
    # is_guarded_atom's answer, asked of closed atomic goals only: a
    # constant prefix folds back into its tail's fixed point, a mixed one
    # does not, so a mixed-prefix stream is no guarded atom
    guarded: bool = True


def _slist(items: list[str], tail: str) -> str:
    return "[" + "|".join(items) + "|" + tail + "]"


def _stream(bits: list[str], tail: str) -> str:
    return _slist(bits, tail) if bits else (tail if " " not in tail else f"({tail})")


# (element position, entry point, list length) of the member goals
MEMBER_SLOTS = ((0, "coprove", 8), (0, "prove", 2), (1, "coprove", 4), (1, "prove", 6),
                (2, "coprove", 7), (2, "prove", 3))
# generalisations of the comember program, two slots of two like goals
COMEMBER_GOALS = (
    ("forall y s. bit y => comember_bit y s", "forall y s. bit y => comember_bit y (f s)"),
    ("forall s. comember_bit 0 s", "forall s. comember_bit 1 (f s)"),
)


def _search_block(rng: random.Random) -> list[Goal]:
    g: list[Goal] = []
    for prog, text, calc, size in REGRESSIONS:
        g.append(Goal("regression", prog, text, calc, "coprove", EXAMPLES_DEPTH, PROVED, size))
    for name, entry in cli.CORPUS.items():
        for kind, text, calc, want in entry["runs"]:
            depth = min(EXAMPLES_DEPTH, 12) if want == "inconclusive" else EXAMPLES_DEPTH
            g.append(Goal("examples", name, text, calc, kind, depth,
                          PROVED if want == "proved" else INCONCLUSIVE))
    # member lists of length 2..8 with the element at position 0..2 (24 to
    # 577 search nodes), each position through both entry points
    for pos, kind, length in MEMBER_SLOTS:
        x = rng.choice("01")
        items = ["1" if x == "0" else "0"] * length
        items[pos] = x
        g.append(Goal("member", "member", f"member {x} {_slist(items, 'nil')}",
                      Calculus.FOHC, kind, EXAMPLES_DEPTH, PROVED))
    for length in (3, 7):
        x = rng.choice("01")
        items = ["1" if x == "0" else "0"] * length
        g.append(Goal("member-absent", "member", f"member {x} {_slist(items, 'nil')}",
                      Calculus.FOHC, "coprove", NEGATIVE_DEPTH, UNPROVABLE))
    # bit streams: a constant prefix before a matching constant tail is a
    # regular stream (proof size 11); a mixed prefix is irregular
    for length in (0, 1, 2, 4):
        b = rng.choice("01")
        tail = rng.choice(["z_str", "n_str 0"]) if b == "0" else "n_str 1"
        g.append(Goal("stream-uniform", "bitstream", f"bitstream {_stream([b] * length, tail)}",
                      Calculus.HOHC, "coprove", EXAMPLES_DEPTH, PROVED, 11))
    for length in (2, 4):
        bits = [rng.choice("01") for _ in range(length)]
        i, j = rng.sample(range(length), 2)
        bits[i], bits[j] = "0", "1"
        tail = rng.choice(["z_str", "n_str 0"])
        g.append(Goal("stream-mixed", "bitstream", f"bitstream {_stream(bits, tail)}",
                      Calculus.HOHC, "coprove", INCONCLUSIVE_DEPTH, INCONCLUSIVE, guarded=False))
    g.append(Goal("fibs", "fibs", "forall x y z. add x y z => fibs x y (fib_str x y)",
                  Calculus.HOHH, "coprove", INCONCLUSIVE_DEPTH, INCONCLUSIVE))
    for nesting in (0, 2):
        start = "x"
        for _ in range(nesting):
            start = f"(s {start})"
        g.append(Goal("from-general", "from", f"forall x. from {start} (fr_str {start})",
                      Calculus.HOHH, "coprove", EXAMPLES_DEPTH, PROVED))
    for pair in COMEMBER_GOALS:
        g.append(Goal("comember-general", "comember", rng.choice(pair),
                      Calculus.FOHH, "coprove", EXAMPLES_DEPTH, PROVED))
    rng.shuffle(g)
    return g


def run_goal(programs: dict[str, fm.Program], goal: Goal) -> str:
    """One search operation; returns the search's reason, raises Failure."""
    program = programs[goal.program]
    f = ps.parse_goal(goal.text, program)
    if isinstance(f, fm.Atom) and not tm.free_vars(f.term):
        if gd.is_guarded_atom(program.signature, f.term) != goal.guarded:
            raise Failure(f"{goal.text!r}: is_guarded_atom should be {goal.guarded}")
    cfg = eng.SearchConfig(calculus=goal.calculus, depth_limit=goal.depth)
    if goal.kind == "coprove":
        out = eng.coprove(program, f, cfg)
    else:
        out = eng.prove(program, eng.LemmaStore(), f, cfg)
    if goal.want != PROVED:
        if out.proved or (goal.want == INCONCLUSIVE and out.reason != "depth-exceeded"):
            raise Failure(f"{goal.text!r}: {out.reason}, expected {goal.want}")
        return out.reason
    if not out.proved:
        raise Failure(f"{goal.text!r}: {out.reason}, expected a proof")
    if goal.size is not None and out.tree.size() != goal.size:
        raise Failure(f"{goal.text!r}: proof size {out.tree.size()}, expected {goal.size}")
    try:
        back = ps.import_proof(ps.export_proof(out.tree, program), program)
        ok, diag = eng.check(back, program, goal.calculus)
    except CupError as exc:
        raise Failure(f"{goal.text!r}: round trip raised {type(exc).__name__}: {exc}") from exc
    if not ok:
        raise Failure(f"{goal.text!r}: re-imported proof does not check: {diag}")
    if not out.tree.equal(back):
        raise Failure(f"{goal.text!r}: re-imported proof differs from the found one")
    return out.reason


# ---------------------------------------------------------------------------
# audit: one audit_proof call per acceptance-grid cell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    proof: str
    depth: int
    budget: int


def find_regression_proofs(programs: dict[str, fm.Program]) -> dict[str, tuple[eng.ProofTree, Calculus]]:
    out = {}
    for prog, text, calc, size in REGRESSIONS:
        res = eng.coprove(programs[prog], ps.parse_goal(text, programs[prog]), eng.SearchConfig(calculus=calc))
        if not res.proved or res.tree.size() != size:
            raise Failure(f"regression proof {prog}: {res.reason}, expected a proof of size {size}")
        out[prog] = (res.tree, calc)
    return out


def _audit_block(rng: random.Random) -> list[Cell]:
    cells = [Cell(*cell) for cell in AUDIT_CELLS]
    rng.shuffle(cells)
    return cells


def run_cell(programs, proofs, cell: Cell) -> str:
    tree, calc = proofs[cell.proof]
    report = sd.audit_proof(tree, programs[cell.proof], cell.depth, cell.budget, calculus=calc)
    if not report.verified:
        raise Failure(f"audit {cell}: not verified, counterexample {report.counterexample!r}")
    return "verified"


# ---------------------------------------------------------------------------
# model: gfp_approx seeded with the atom, then member_of_model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    program: str
    atom: str
    depth: int
    member: bool
    # a non-member must come back CertainlyOut from this depth on: its
    # first disagreement with every model atom sits at node depth
    # out_from - 1, and truncation at depth n keeps nodes shallower than n
    out_from: int = 0
    guarded: bool = False


def _nat(k: int) -> str:
    t = "0"
    for _ in range(k):
        t = f"(s {t})"
    return t


def _fo_stream_term(rng: random.Random, size: int) -> str:
    """A first-order stream term of the given size: its shape follows the
    size, the seed picks the bits."""
    if size <= 1:
        return rng.choice("01")
    if size % 2:
        return f"(f {_fo_stream_term(rng, size - 1)})"
    return f"[{rng.choice('01')}|{_fo_stream_term(rng, size - 2)}]"


# (program, depth, member, size) of a model block's queries; size is the
# list length (member), the prefix length (bitstream), the start number
# (from) or the stream term size (comember). from and comember queries
# cost 0.4 to 2.2 s, so they come only at their cheapest depths: a round
# of the block then takes about 4 s and a run executes it about seven
# times (see run.py). Non-members sit at depths where they must already
# come back CertainlyOut.
MODEL_SLOTS = (
    ("member", 2, True, 4), ("member", 3, True, 5), ("member", 4, True, 3),
    ("member", 5, False, 3), ("member", 6, False, 3),
    ("bitstream", 2, True, 3), ("bitstream", 3, True, 2), ("bitstream", 4, True, 1),
    ("bitstream", 5, True, 0), ("bitstream", 6, True, 2),
    ("from", 2, True, 2), ("from", 3, False, 0),
    ("comember", 2, False, 3),
)


def _query(rng: random.Random, program: str, depth: int, member: bool, size: int) -> Query:
    if program == "member":
        x = rng.choice("01")
        items = ["1" if x == "0" else "0"] * size
        if member:
            items[rng.randrange(size)] = x
        # the nil closing a list of n items sits at node depth n + 1
        return Query(program, f"member {x} {_slist(items, 'nil')}", depth, member, size + 2)
    if program == "bitstream":
        b = rng.choice("01")
        bits = [rng.choice("01") for _ in range(size)]
        tail = rng.choice(["z_str", "n_str 0"]) if b == "0" else "n_str 1"
        return Query(program, f"bitstream {_stream(bits, tail)}", depth, True, guarded=True)
    if program == "from":
        b = size if member else rng.choice([k for k in range(3) if k != size])
        # from k (fr_str m): the first stream element m meets k below node depth 2
        return Query(program, f"from {_nat(size)} (fr_str {_nat(b)})", depth, member,
                     3 + min(size, b), guarded=True)
    y = rng.choice("01")
    head = y if member else f"(f {y})"  # bit (f y) has no clause: out at node depth 1
    return Query(program, f"comember_bit {head} {_fo_stream_term(rng, size)}", depth, member, 2)


def _model_block(rng: random.Random) -> list[Query]:
    qs = [_query(rng, *slot) for slot in MODEL_SLOTS]
    rng.shuffle(qs)
    return qs


def run_query(programs, q: Query) -> str:
    program = programs[q.program]
    f = ps.parse_goal(q.atom, program)
    approx = tr.gfp_approx(program, q.depth, tr.InstanceConfig(seed_atoms=(f.term,)))
    verdict = tr.member_of_model(f.term, approx, program.signature)
    if q.member and verdict != tr.IN_APPROX:
        raise Failure(f"model {q.atom!r} at depth {q.depth}: {verdict}, expected {tr.IN_APPROX}")
    if not q.member and q.depth >= q.out_from and verdict != tr.CERTAINLY_OUT:
        raise Failure(f"model {q.atom!r} at depth {q.depth}: {verdict}, expected {tr.CERTAINLY_OUT}")
    return verdict


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    block: callable  # rng -> one block of operations
    run: callable  # (context, operation) -> outcome; raises Failure


WORKLOADS = {
    "search": Workload(_search_block, lambda ctx, op: run_goal(ctx["programs"], op)),
    "audit": Workload(_audit_block, lambda ctx, op: run_cell(ctx["programs"], ctx["proofs"], op)),
    "model": Workload(_model_block, lambda ctx, op: run_query(ctx["programs"], op)),
}


def blocks(workload: str, seed: int, count: int) -> list[list]:
    """The first `count` blocks of a workload's input sequence for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [WORKLOADS[workload].block(rng) for _ in range(count)]


def setup(workload: str, seed: int, count: int) -> dict:
    """Everything a run needs before its first timed operation."""
    ctx = {"programs": load_programs(), "blocks": blocks(workload, seed, count)}
    if workload == "audit":
        ctx["proofs"] = find_regression_proofs(ctx["programs"])
    return ctx


def input_shares(workload: str, ops: list) -> dict[str, float]:
    """Input properties as shares of the operations, for later changes that
    rely on one (repetition for caches, depth for renderers, ...)."""
    n = len(ops)

    def share(pred) -> float:
        return round(sum(1 for o in ops if pred(o)) / n, 4)

    def repeats(key) -> float:
        seen: set = set()
        hits = 0
        for o in ops:
            k = key(o)
            hits += k in seen
            seen.add(k)
        return round(hits / n, 4)

    if workload == "search":
        return {
            "higher_order": share(lambda g: g.calculus.higher_order),
            "want_proved": share(lambda g: g.want == PROVED),
            "want_unprovable_or_inconclusive": share(lambda g: g.want != PROVED),
            "via_prove": share(lambda g: g.kind == "prove"),
            "repeated_goal": repeats(lambda g: (g.program, g.text, g.kind, g.depth)),
        }
    if workload == "audit":
        return {
            "depth_ge_5": share(lambda c: c.depth >= 5),
            "budget_0": share(lambda c: c.budget == 0),
            "repeated_proof_depth": repeats(lambda c: (c.proof, c.depth)),
        }
    return {
        "depth_ge_5": share(lambda q: q.depth >= 5),
        "non_member": share(lambda q: not q.member),
        "guarded_atom": share(lambda q: q.guarded),
        "repeated_query": repeats(lambda q: (q.program, q.atom, q.depth)),
    }
