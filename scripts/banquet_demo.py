#!/usr/bin/env python3
"""Solve the banquet seating model and print the chart.

Ten guests (three couples among them) over three tables of five, with the
host pinned to table 0, four separation pairs, and adjacency to the host's
table maximized. One couple's togetherness constraint routes through the
equality theory instead of the flag encoding, so the run exercises theory
propagation; pass --oracle to confirm the optimum by enumerating the box.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from seating import banquet_instance, describe  # noqa: E402

from imtsolver.engine import solve  # noqa: E402
from imtsolver.oracle import brute_force_solve  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--oracle", action="store_true", help="cross-check with brute force"
    )
    args = ap.parse_args(argv)

    instance = banquet_instance()
    res = solve(instance)
    if res.status != "optimal":
        print(f"unexpected status: {res.status}", file=sys.stderr)
        return 1
    # the objective counts host-table adjacency, negated for minimization
    print(f"host-table adjacency: {-res.value.value}")
    for line in describe(res.assignment):
        print(line)
    print(res.stats.summary(), file=sys.stderr)

    if args.oracle:
        want = brute_force_solve(instance)
        match = want.status == "optimal" and want.value == res.value.value
        print(f"oracle agreement: {'yes' if match else 'NO'}")
        return 0 if match else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
