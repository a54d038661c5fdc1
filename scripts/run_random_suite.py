#!/usr/bin/env python3
"""Cross-check the search engine against brute force on random instances.

Draws seeded instances in the same shapes the test suite uses, solves each
with the engine, enumerates the box with the oracle, and compares status and
objective value exactly. Every trace is replayed through the rule kernel
before a run counts as agreeing. Mismatches are dumped in the native format
so they can be rerun with `imt-solve`.
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gen import random_instance  # noqa: E402

from imtsolver.engine import solve  # noqa: E402
from imtsolver.kernel import replay_trace  # noqa: E402
from imtsolver.model import ObjValue  # noqa: E402
from imtsolver.native import render_instance  # noqa: E402
from imtsolver.oracle import brute_force_solve  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=200, help="instances to draw")
    ap.add_argument("--seed", type=int, default=20240817, help="base RNG seed")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    counts = {"optimal": 0, "infeasible": 0}
    mismatches = 0
    start = time.perf_counter()
    for i in range(args.runs):
        instance = random_instance(rng)
        want = brute_force_solve(instance)
        got = solve(instance)
        ok = got.status == want.status
        if ok and want.status == "optimal":
            ok = got.value == ObjValue.finite(want.value)
        state = replay_trace(instance, got.steps)
        ok = ok and state.final
        if ok:
            counts[want.status] += 1
        else:
            mismatches += 1
            print(f"-- mismatch on run {i}: engine {got.status} {got.value},", end=" ")
            print(f"oracle {want.status} {want.value}")
            print(render_instance(instance))
    elapsed = time.perf_counter() - start
    print(
        f"{args.runs} runs in {elapsed:.1f}s: "
        f"{counts['optimal']} optimal, {counts['infeasible']} infeasible, "
        f"{mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
