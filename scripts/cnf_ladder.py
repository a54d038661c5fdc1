#!/usr/bin/env python3
"""Time the engine on a ladder of mid-size random 3-CNF formulas.

For each size in ``SIZES`` (variables), draws ``DRAWS`` formulas from
``random.Random(nvars)`` with ``round(RATIO * nvars)`` clauses, using
``tests/gen.py``'s ``random_cnf`` and ``cnf_script``, encodes each through
SMT-LIB and solves it in process. One line per formula:

    <vars>/<clauses> #<draw> <status> nodes=.. lp=.. pivots=.. lp_rows=.. cuts=.. <seconds>s

then ``total <seconds>s`` and ``statuses <sha256>`` over the
``<vars>/<clauses> #<draw> <status>`` parts alone. Two source trees reach the
same verdicts on the ladder exactly when their status digests agree. Run the
trees one after the other, not at once, so that they do not share the cores:

    python3 scripts/cnf_ladder.py
"""
from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gen import cnf_script, random_cnf  # noqa: E402

from imtsolver.engine import solve  # noqa: E402
from imtsolver.smtlib import encode_script  # noqa: E402

SIZES = (14, 16, 18)
DRAWS = 3
RATIO = 4.5  # clauses per variable


def main() -> int:
    statuses = hashlib.sha256()
    total = 0.0
    for nvars in SIZES:
        rng = random.Random(nvars)
        nclauses = round(RATIO * nvars)
        for draw in range(DRAWS):
            script = cnf_script(random_cnf(rng, nvars, nclauses), nvars)
            start = time.perf_counter()
            result = solve(encode_script(script).instance)
            seconds = time.perf_counter() - start
            total += seconds
            st = result.stats
            verdict = f"{nvars}/{nclauses} #{draw} {result.status}"
            print(
                f"{verdict} nodes={st.nodes} lp={st.lp_solves} pivots={st.pivots} "
                f"lp_rows={st.lp_rows} cuts={st.cuts} {seconds:.2f}s",
                flush=True,
            )
            statuses.update(verdict.encode() + b"\n")
    print(f"total {total:.2f}s")
    print(f"statuses {statuses.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
