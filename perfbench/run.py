#!/usr/bin/env python3
"""Benchmark of cup's search, audit and model paths.

    python3 perfbench/run.py --workload {search,audit,model} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. Each workload is a closed loop: one
client in one process, no threads, the next operation starting when the
previous one has returned. The operations call the `cup` library in
process (a subprocess per goal would add about 0.24 s of import to
operations of 5 ms to 3 s) and each is checked against an answer known by
construction; see workloads.py.

The seed fixes the operations: a run draws the first blocks of the
seed's sequence and executes all of them in each of several rounds, as
many rounds as take about S seconds at the parent commit, so two commits
time the same operations. Every round runs the operations in another
seeded order, so the executions of one operation fall at different times
of the run.

--trace 0 times them and prints the end-to-end metrics. The timing ones
are in reference time: each operation's time, and each set-up's, scaled
by a fixed kernel's reference time over its time around it, which
cancels the speed changes of the shared machines this runs on (see
speed.py). The raw wall-clock figures are printed beside them.

--trace 1 runs one round untraced and one traced, and prints the
per-layer metrics and the tracing overhead; its spans go to
perfbench/out/. Both end with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5  # the run's own set-up plus four fresh processes
# blocks a run draws: a search block has 29 goals, an audit block 11
# cells, a model block 13 queries
BLOCKS = {"search": 4, "audit": 1, "model": 1}
# seconds one round (every operation once) takes at the parent commit on a
# 2-vCPU machine
NOMINAL_ROUND_S = {"search": 6.0, "audit": 4.3, "model": 4.3}
MIN_ROUNDS = 2
# no round starts after this many times --seconds, should a machine be far
# slower than the nominal times assume
MAX_STRETCH = 1.2
# gfp_approx iterates sets of trees, whose order follows the per-process
# string hash seed; that alone moves a model run by about 5 %, so every
# run uses the same one
HASH_SEED = "0"
CLOCK = time.perf_counter


def _import_cup() -> None:
    """Put the checkout's own sources first on the path and make sure they
    are what gets imported."""
    if not (SRC / "cup" / "__init__.py").is_file():
        raise SystemExit(f"error: no cup sources at {SRC / 'cup'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cup

    if Path(cup.__file__).resolve().parent != (SRC / "cup").resolve():
        raise SystemExit(f"error: imported cup from {cup.__file__}, not from {SRC / 'cup'}")


def _setup(workload: str, seed: int, tracer=None):
    """Import, parse the corpus and generate the inputs (and, for audit,
    find the four regression proofs); returns (context, seconds)."""
    t0 = CLOCK()
    _import_cup()
    import workloads

    if tracer is not None:
        tracer.install(workloads)
    try:
        ctx = workloads.setup(workload, seed, BLOCKS[workload])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ctx, CLOCK() - t0


def _setup_at_speed(workload: str, seed: int):
    """_setup, timed also in reference seconds (see speed.py); returns
    (context, seconds, reference seconds)."""
    probe = speed.Speed()
    probe.sample()
    t0 = CLOCK()
    ctx, seconds = _setup(workload, seed)
    probe.sample()
    return ctx, seconds, probe.reference_ms(t0, seconds) / 1000


def _round_count(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def _setup_in_fresh_process(workload: str, seed: int, seconds: float) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(ref)


class Pass:
    """Outcome of one or more rounds over a run's operations."""

    def __init__(self, count: int):
        self.count = count  # operations in a round
        self.durations: list[float] = []
        self.reference_ms: list[float] = []  # see speed.py
        self.kernel_ms = 0.0  # the speed kernel's median time
        self.failures: list[str] = []
        self.errors: list[dict] = []
        self.outcomes: collections.Counter = collections.Counter()
        self.wall = 0.0
        self.rounds = 0
        self.ops: list = []


def _attempt(wl, ctx, op, result: Pass) -> None:
    import workloads
    from cup.errors import CupError

    try:
        result.outcomes[wl.run(ctx, op)] += 1
    except workloads.Failure as exc:
        result.failures.append(str(exc))
    except CupError as exc:
        # a CupError is a verdict of the program (inconclusive), not a failure
        result.outcomes[f"CupError:{type(exc).__name__}"] += 1
    except Exception as exc:  # any other exception is a bug of the program
        result.failures.append(f"{type(exc).__name__}: {exc}")
        result.errors.append({"op": repr(op), "type": type(exc).__name__, "message": str(exc),
                              "where": traceback.format_exc(limit=-3)})


def round_orders(workload: str, seed: int, count: int, rounds: int) -> list[list[int]]:
    """The order of the operations in each round: as drawn in the first,
    seeded shuffles in the others."""
    orders = [list(range(count))]
    for r in range(1, rounds):
        order = list(range(count))
        random.Random(f"{workload}:{seed}:round{r}").shuffle(order)
        orders.append(order)
    return orders


def _run_rounds(wl, ctx, orders, limit_s=None, tracer=None, between_rounds=None) -> Pass:
    """Run the operations in each round's order, timing the machine's speed
    along the way (see speed.py); with limit_s, start no round after
    limit_s seconds. between_rounds, if given, is called after each round
    but the last, outside the timed operations."""
    ops = [op for block in ctx["blocks"] for op in block]
    result = Pass(len(ops))
    probe = speed.Speed()
    starts: list[float] = []
    start = CLOCK()
    for r, order in enumerate(orders):
        if limit_s is not None and result.rounds >= MIN_ROUNDS and CLOCK() - start > limit_s:
            break
        if r and between_rounds is not None:
            between_rounds()
        for i in order:
            if tracer is not None:
                tracer.op += 1
            probe.maybe_sample()
            t0 = CLOCK()
            _attempt(wl, ctx, ops[i], result)
            d = CLOCK() - t0
            starts.append(t0)
            result.durations.append(d)
            result.ops.append(ops[i])
        result.rounds += 1
    probe.sample()
    result.reference_ms = [probe.reference_ms(t0, d) for t0, d in zip(starts, result.durations)]
    result.kernel_ms = probe.kernel_ms_p50()
    result.wall = CLOCK() - start
    return result


def _src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "cup").glob("*.py")))


def _percentiles_ms(durations: list[float], scale: float = 1000) -> tuple[float, float]:
    """p50 and p90 of the durations times scale (by default, seconds to ms)."""
    ms = [d * scale for d in durations]
    if len(ms) == 1:
        return ms[0], ms[0]
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    return cuts[4], cuts[8]


# A p90 needs ten samples beyond it, so a hundred executions: only search
# has them (audit and model have 77 and 91 a run at --seconds 30), so it
# is printed for search alone and is not among the declared metrics,
# which every workload must print.
P90_WORKLOADS = ("search",)


def _report(workload, seed, args, passes: list[Pass], metrics: dict, printed=None) -> None:
    """Print the run's context, inputs and outcomes, every metric by name
    with its unit (`printed` ones are not in the result line), and last the
    one-line JSON result."""
    import workloads

    attempted = sum(len(p.durations) for p in passes)
    failures = [f for p in passes for f in p.failures]
    errors = [e for p in passes for e in p.errors]
    outcomes = sum((p.outcomes for p in passes), collections.Counter())
    context = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "blocks": BLOCKS[workload], "operations": passes[0].count,
        "rounds": [p.rounds for p in passes], "loop": "closed, 1 client, 1 process, no threads",
        "python": platform.python_version(), "nproc": os.cpu_count(), "src_lines": _src_lines(),
    }
    print("context:", json.dumps(context))
    print("inputs:", json.dumps(workloads.input_shares(workload, passes[-1].ops)))
    print("outcomes:", json.dumps(dict(sorted(outcomes.items()))))
    print(f"op_samples = {attempted} count ({passes[0].count} operations, "
          f"{'+'.join(str(p.rounds) for p in passes)} rounds)")
    print(f"failed_ratio = {len(failures) / attempted:.4f} ratio ({len(failures)} failed)")
    for f in failures[:20]:
        print("failed:", f)
    for e in errors[:5]:
        print("unexpected exception:", json.dumps(e))
    for name, (value, unit) in {**metrics, **(printed or {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("search", "audit", "model"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})

    if args.setup_probe:
        _, seconds, reference_s = _setup_at_speed(args.workload, args.seed)
        print(seconds, reference_s)
        return 0

    if args.trace == 0:
        ctx, *own = _setup_at_speed(args.workload, args.seed)
        samples = [tuple(own)]  # (seconds, reference seconds)

        def probe_setup() -> None:
            # set-up is timed in fresh processes between rounds, so that
            # its median spans the run as the operations do
            if len(samples) < SETUP_SAMPLES:
                samples.append(_setup_in_fresh_process(args.workload, args.seed, args.seconds))

        import workloads

        wl = workloads.WORKLOADS[args.workload]
        count = sum(len(b) for b in ctx["blocks"])
        orders = round_orders(args.workload, args.seed, count, _round_count(args.workload, args.seconds))
        result = _run_rounds(wl, ctx, orders, MAX_STRETCH * args.seconds, between_rounds=probe_setup)
        while len(samples) < SETUP_SAMPLES:
            probe_setup()
        ref_p50, ref_p90 = _percentiles_ms(result.reference_ms, scale=1)
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in samples), "s"),
            "ops_per_ref_s": (len(result.durations) / (sum(result.reference_ms) / 1000), "1/ref_s"),
            "op_ref_ms.p50": (ref_p50, "ref_ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        p50, p90 = _percentiles_ms(result.durations)
        printed = {"setup_wall_s": (statistics.median(raw for raw, _ in samples), "s"),
                   "ops_per_s": (len(result.durations) / result.wall, "1/s"),
                   "op_ms.p50": (p50, "ms"),
                   "kernel_ms.p50": (result.kernel_ms, "ms")}
        if args.workload in P90_WORKLOADS:
            printed["op_ref_ms.p90"] = (ref_p90, "ref_ms")
            printed["op_ms.p90"] = (p90, "ms")
        _report(args.workload, args.seed, args, [result], metrics, printed)
        return 0

    _import_cup()
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    ctx, _ = _setup(args.workload, args.seed, tracer)
    orders = round_orders(args.workload, args.seed, sum(len(b) for b in ctx["blocks"]), 1)
    untraced = _run_rounds(wl, ctx, orders)
    tracer.install(workloads)
    try:
        traced = _run_rounds(wl, ctx, orders, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # in reference time, so that a change of the machine's speed between
    # the two passes does not show as overhead
    plain, with_spans = sum(untraced.reference_ms) / 1000, sum(traced.reference_ms) / 1000
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    metrics["trace.overhead_ratio"] = ((with_spans - plain) / plain, "ratio")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    print(f"spans: {tracer.write(path)} written to {path.relative_to(ROOT)}")
    _report(args.workload, args.seed, args, [untraced, traced], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
