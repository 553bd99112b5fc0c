"""Self-test of the layer tracer: counts repeat exactly across traced runs.

Run from the root of a walshframes checkout:

  python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all) it makes two traced operations on the
config's own seed and requires every calls, builds and count metric to be
identical.  On the unchanged seed code (src/ of SEED_SRC_LINES lines) it
also requires the counts below, measured when the benchmark was defined;
once src/ changes they are printed for comparison only.  Exits 1 on any
failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers
import run

SEED_SRC_LINES = 2410
SEED_STATE = {
    "verify-q3": {
        "framekit.coefficient_row.calls": 2500,
        "framekit.member.calls": 56100,
        "framekit.member.builds": 201,
        "framekit.coefficient_row.overlap_ratio": 32100 / 56100,
        "stepfn.inner.calls": 33700,
        "algebra.element.count": 820460,
    },
    "periodic-nu6": {
        "periodic.member.calls": 518300,
        "periodic.member.builds": 1574,
    },
    "transform-q4": {
        "algebra.element.count": 262144,
    },
}
EXACT = (".calls", ".builds", ".count")


def traced_counts(bench: run.Bench) -> dict:
    op = bench.operation(0, mode="trace")
    metrics = layers.per_layer([str(t) for t in op["traces"]])
    return {k: v for k, v in metrics.items()
            if k.endswith(EXACT) or k.endswith("_ratio")}


def main(names: list[str]) -> int:
    root = Path.cwd()
    ok = True
    for name in names or run.WORKLOADS:
        bench = run.Bench(root, name, seed=0)
        try:
            first, second = traced_counts(bench), traced_counts(bench)
            src_lines = bench.context()["src_lines"]
        finally:
            bench.close()
        if bench.failed:
            print(f"{name}: FAILED operations: {bench.errors[:5]}")
            ok = False
        for key in sorted(first):
            if first[key] != second[key]:
                print(f"{name}: {key} not repeatable: {first[key]} then {second[key]}")
                ok = False
        for key, want in SEED_STATE[name].items():
            got = first[key]
            if got == want:
                verdict = "matches the seed state"
            elif src_lines == SEED_SRC_LINES:
                verdict = "FAILED: differs from the seed state"
                ok = False
            else:
                verdict = f"seed state was {want} (src/ has changed)"
            print(f"{name}: {key} = {got}: {verdict}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
