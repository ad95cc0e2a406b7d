#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

It takes about two minutes: each workload runs once untraced at the
shortest length (two rounds) and once traced (one round untraced, one
traced), and once more from a directory without the program's sources,
where it must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_same_seed_same_inputs():
    for name in NAMES:
        assert workloads.blocks(name, 5, 3) == workloads.blocks(name, 5, 3), name
        assert workloads.blocks(name, 5, 3) != workloads.blocks(name, 6, 3), name


def test_rounds_are_seeded_permutations():
    for name in NAMES:
        orders = run.round_orders(name, 5, 20, 4)
        assert orders == run.round_orders(name, 5, 20, 4), name
        assert all(sorted(o) == list(range(20)) for o in orders), name
        assert len({tuple(o) for o in orders}) == 4, name


def test_reference_time_cancels_the_machine_speed():
    probe = speed.Speed()
    # the kernel took 2x its reference time before an operation and 4x after
    probe.at, probe.kernel_s = [1.0, 2.0], [2 * speed.REFERENCE_KERNEL_MS / 1000,
                                            4 * speed.REFERENCE_KERNEL_MS / 1000]
    assert abs(probe.reference_ms(1.5, 0.3) - 100.0) < 1e-9
    # before the first timing or after the last, the nearest one counts
    assert abs(probe.reference_ms(0.5, 0.2) - 300 / 3) < 1e-9


def test_blocks_have_one_composition():
    # the seed instantiates and orders the slots of a block, never its mix
    def mix(block):
        if block and isinstance(block[0], workloads.Goal):
            return sorted((g.family, g.kind, g.want) for g in block)
        if block and isinstance(block[0], workloads.Cell):
            return sorted((c.proof, c.depth) for c in block)
        return sorted((q.program, q.depth) for q in block)

    for name in NAMES:
        first = workloads.blocks(name, 1, 1)[0]
        assert all(mix(b) == mix(first) for b in workloads.blocks(name, 2, 4)), name
    assert len(workloads.blocks("search", 1, 4)[0]) * 4 >= 100


def test_declared_per_layer_metrics_are_the_traced_ones():
    names = list(tracing.Tracer().metrics()) + ["trace.overhead_s", "trace.overhead_ratio"]
    assert names == [m["name"] for m in BENCH["per_layer"]]
    traced = set(names)
    for row in json.loads((HERE / "layers.json").read_text())["rows"]:
        for metric in row["layer_metrics"]:
            assert metric in traced or f"{metric}.calls" in traced, metric


def _layer_calls_expected() -> dict[str, set[str]]:
    """For each workload, the per-layer metrics layers.json says should move
    one of its end-to-end metrics: their traced calls (or counts) must not
    be 0 there."""
    out: dict[str, set[str]] = {name: set() for name in NAMES}
    for row in json.loads((HERE / "layers.json").read_text())["rows"]:
        for workload in row["moves"]:
            out[workload].update(row["layer_metrics"])
    return out


def test_smoke_every_workload_every_metric():
    expected = _layer_calls_expected()
    for name in NAMES:
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            proc = _run(ROOT, name, trace)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, (name, trace)
            if trace == 1:
                calls = {k: v["value"] for k, v in last["metrics"].items() if k.endswith(".calls")}
                if name == "search":
                    assert not any(v for k, v in calls.items() if k.startswith(("trees.", "soundness.")))
                if name == "model":
                    assert calls["engine.coprove.calls"] == calls["engine.prove.calls"] == 0
                values = {k: v["value"] for k, v in last["metrics"].items()}
                for metric in expected[name]:
                    key = f"{metric}.calls" if f"{metric}.calls" in values else metric
                    if key.endswith(".calls") or key.endswith(("_nodes", "_atoms")):
                        assert values[key] > 0, (name, key)
            print(f"ok {name} --trace {trace}: {last['attempted']} operations", flush=True)


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, NAMES[0], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print("passed", test.__name__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
