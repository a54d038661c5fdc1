#!/usr/bin/env python3
"""Fingerprint the traces the engine writes for the benchmark's inputs.

Draws the inputs of one benchmark workload (``bench/workloads.py``) for each
seed in a range, solves each one in process, and prints one line per input:

    <workload> <seed> <index> <status> <sha256 of the trace file's bytes>

then a line ``rules learn=<n> forget=<n> branch=<n> ...`` with the
number of trace steps of each kernel rule, summed over all inputs, a line
``uncited <n>`` with the number of ``learn`` steps whose row no later step's
certificate cites, summed over all inputs, a line ``statuses <sha256>`` over
``<workload> <seed> <index> <status>`` alone, and a last line
``combined <sha256>`` over all of the per-input lines.
Two source trees write byte-identical traces on these inputs exactly when
their combined digests agree, and reach the same verdict on every input
exactly when their status digests agree. So a change that must not alter any
proof step, or one that may alter proofs but no verdict, is checked by
running this on both trees:

    python3 scripts/trace_digest.py --workload random-suite --seeds 1-4

When proofs change but verdicts do not, the ``rules`` lines of the two trees
show which kinds of step moved, without a traced benchmark run, and the
``uncited`` lines how many learned rows no step needed.

Each trace is also read back (``read_trace``) and replayed through a fresh
kernel (``replay_trace``). When a replay fails, stops short of a final state
or reaches another verdict than the solve, the script names the input on
stderr and exits 1.

Only the standard library and the sources under ``src/`` are used.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from imtsolver.engine import solve  # noqa: E402
from imtsolver.kernel import Step, replay_trace, verdict  # noqa: E402
from imtsolver.model import ImtError, LinConstraint  # noqa: E402
from imtsolver.native import parse_instance  # noqa: E402
from imtsolver.smtlib import encode_script  # noqa: E402
from imtsolver.trace import read_trace, write_trace  # noqa: E402

# the kernel's rules, in the order the benchmark reports their step counts
RULES = ("learn", "forget", "branch", "drop", "prune", "retire", "unbounded")


def seed_range(text: str) -> range:
    """``"3"`` or ``"1-4"`` (both ends included)."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N-M, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def cited_rows(cert: object) -> Iterator[LinConstraint]:
    """Every row a certificate holds, at any depth."""
    if isinstance(cert, LinConstraint):
        yield cert
    elif isinstance(cert, tuple):
        for item in cert:
            yield from cited_rows(item)
    elif is_dataclass(cert):
        for f in fields(cert):
            yield from cited_rows(getattr(cert, f.name))


def uncited(steps: tuple[Step, ...]) -> int:
    """The number of ``learn`` steps whose row no later step's certificate cites."""
    later: set[LinConstraint] = set()
    count = 0
    for step in reversed(steps):
        if step.rule == "learn" and step.row not in later:
            count += 1
        later.update(cited_rows(step.cert))
    return count


class Disagreement(Exception):
    """A written trace that does not replay to the solve's verdict."""


def trace_digest(case: workloads.Case, path: Path, rules: Counter) -> tuple[str, str]:
    """Status of the solve and the sha256 of the trace file ``write_trace`` writes to ``path``.

    Adds the solve's step count per rule to ``rules``, and its uncited
    ``learn`` steps to ``rules["uncited"]``. Raises ``Disagreement`` unless
    the file replays to the solve's verdict.
    """
    if case.fmt == "smt":
        instance = encode_script(case.text).instance
    else:
        instance = parse_instance(case.text)
    result = solve(instance)
    rules.update(step.rule for step in result.steps)
    rules["uncited"] += uncited(result.steps)
    write_trace(path, instance, result.steps)
    try:
        replay = replay_trace(instance, read_trace(path, instance)[1])
    except ImtError as exc:
        raise Disagreement(f"the trace does not replay: {exc}") from exc
    if not replay.final:
        raise Disagreement("the replayed trace does not reach a final state")
    status, value = verdict(instance, replay.state)
    if (status, value) != (result.status, result.value):
        raise Disagreement(
            f"replay verdict {status} {value.render()} differs from the solve's "
            f"{result.status} {result.value.render()}"
        )
    return result.status, hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-4"), help="N or N-M (default 1-4)")
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    args = ap.parse_args(argv)

    statuses = hashlib.sha256()
    combined = hashlib.sha256()
    rules: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace"
        for seed in args.seeds:
            for i, case in enumerate(workloads.generate(args.workload, seed, args.size)):
                try:
                    status, digest = trace_digest(case, path, rules)
                except Disagreement as exc:
                    print(f"error: {args.workload} seed {seed} input {i}: {exc}", file=sys.stderr)
                    return 1
                verdict = f"{args.workload} {seed} {i} {status}"
                print(f"{verdict} {digest}")
                statuses.update(verdict.encode() + b"\n")
                combined.update(f"{verdict} {digest}\n".encode())
    print("rules " + " ".join(f"{rule}={rules[rule]}" for rule in RULES))
    print(f"uncited {rules['uncited']}")
    print(f"statuses {statuses.hexdigest()}")
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
