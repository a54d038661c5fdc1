"""Command line driver.

    imt-solve FILE [--format auto|native|smt] [--default-bound N]
              [--trace PATH] [--replay PATH] [--oracle-check]
              [--node-budget N] [--cut-cap N]

Prints one status line on stdout (optimal <value> / sat / infeasible /
unbounded / unknown), then a model as (name value) pairs: always for a
native instance with a feasible answer, for SMT-LIB scripts only when the
script contains get-model. Instances with a zero objective are feasibility
queries and report sat rather than optimal 0. Search statistics go to
stderr so stdout stays byte-stable across runs.

Exit codes: 0 optimal or sat, 10 infeasible, 20 unbounded, 30 budget
exhausted (status unknown), 1 bad input, an instance shape the engine cannot
decide with a certificate, or a rejected trace, 2 a usage error: a missing
FILE, an unknown option or a bad option value, such as a negative N.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .kernel import ReplayError, replay_trace, verdict
from .model import ImtError, ImtInstance, ObjValue, Var
from .native import parse_instance, quote_name
from .smtlib import encode_script
from .trace import read_trace, write_trace

if TYPE_CHECKING:
    from .engine import SolveResult

EXIT_OK = 0
EXIT_INFEASIBLE = 10
EXIT_UNBOUNDED = 20
EXIT_BUDGET = 30
EXIT_ERROR = 1


@dataclass
class Job:
    """An instance plus how to present its answer."""

    instance: ImtInstance
    feasibility: bool  # report sat, not optimal 0
    negate_value: bool  # source asked to maximize
    model_lines: object  # callable: assignment -> list[str] | None

    def display_value(self, v: ObjValue) -> str:
        """The value in the source's sense: a maximize script sees it negated."""
        if self.negate_value:
            v = ObjValue(-v.kind, None if v.value is None else -v.value)
        return v.render()


def _native_job(text: str, default_bound: int | None) -> Job:
    instance = parse_instance(text)
    if default_bound is not None:
        instance = ImtInstance(
            instance.vars,
            instance.bounds.filled(instance.vars, default_bound),
            instance.constraints,
            instance.atoms,
            instance.objective,
            instance.funs,
        )

    def lines(assignment: dict[Var, int] | None) -> list[str] | None:
        if assignment is None:
            return None
        return [f"({quote_name(v)} {assignment[v]})" for v in sorted(assignment)]

    return Job(instance, instance.objective.is_zero(), False, lines)


def _smt_job(text: str, default_bound: int | None) -> Job:
    enc = encode_script(text, default_bound=default_bound)

    def lines(assignment: dict[Var, int] | None) -> list[str] | None:
        if assignment is None or not enc.wants_model:
            return None
        return enc.model_lines(assignment)

    return Job(enc.instance, not enc.has_objective, enc.negated_objective, lines)


def _sniff(path: str, text: str) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".smt2", ".smt"):
        return "smt"
    if suffix == ".imt":
        return "native"
    for ch in text:
        if ch.isspace():
            continue
        return "smt" if ch in "(;" else "native"
    return "native"


def _load(path: str, fmt: str, default_bound: int | None) -> Job:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ImtError(f"{path}: not UTF-8 text: {exc}") from exc
    if fmt == "auto":
        fmt = _sniff(path, text)
    if fmt == "smt":
        return _smt_job(text, default_bound)
    return _native_job(text, default_bound)


def _status_exit(job: Job, status: str, value: ObjValue) -> tuple[str, int]:
    if status == "infeasible":
        return "infeasible", EXIT_INFEASIBLE
    if status == "unbounded":
        return "unbounded", EXIT_UNBOUNDED
    if job.feasibility:
        return "sat", EXIT_OK
    return f"optimal {job.display_value(value)}", EXIT_OK


def _check_oracle(job: Job, result: SolveResult) -> str | None:
    """Cross-check against in-box enumeration; None means agreement."""
    from .oracle import BoxTooLarge, brute_force_solve

    try:
        oracle = brute_force_solve(job.instance)
    except BoxTooLarge as exc:
        print(f"oracle check skipped: {exc}", file=sys.stderr)
        return None
    if oracle.status != result.status:
        return f"engine says {result.status}, oracle says {oracle.status}"
    if oracle.status == "optimal" and result.value.value != oracle.value:
        return (
            f"engine value {result.value.render()}, oracle value {oracle.value}"
        )
    return None


def _replay(args: argparse.Namespace, job: Job) -> int:
    _, steps = read_trace(args.replay, job.instance)
    try:
        rep = replay_trace(job.instance, steps)
    except ReplayError as exc:
        print(f"trace rejected: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("trace accepted")
    if rep.final:
        line, _ = _status_exit(job, *verdict(job.instance, rep.state))
        print(line)
    return EXIT_OK


def _solve(args: argparse.Namespace, job: Job) -> int:
    # imported here so that --replay runs without the search engine and the LP
    from .engine import Config, EngineLimit, solve

    config = Config()
    if args.cut_cap is not None:
        config.max_cut_rounds = args.cut_cap
    if args.node_budget is not None:
        config.node_limit = args.node_budget
    try:
        result = solve(job.instance, config)
    except EngineLimit as exc:
        print(
            f"budget: {exc}; incumbent {job.display_value(exc.incumbent)}, bound {job.display_value(exc.bound)}",
            file=sys.stderr,
        )
        if args.trace:
            write_trace(args.trace, job.instance, exc.steps)
        print("unknown")
        return EXIT_BUDGET

    print(result.stats.summary(), file=sys.stderr)
    if args.trace:
        write_trace(args.trace, job.instance, result.steps)
    if args.oracle_check:
        mismatch = _check_oracle(job, result)
        if mismatch is not None:
            print(f"oracle mismatch: {mismatch}", file=sys.stderr)
            return EXIT_ERROR

    line, code = _status_exit(job, result.status, result.value)
    print(line)
    if code == EXIT_OK:
        for entry in job.model_lines(result.assignment) or []:
            print(entry)
    return code


def _non_negative(text: str) -> int:
    """An N option's value; anything but a non-negative integer is a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="imt-solve",
        description="Solve a linear-integer instance with theory atoms.",
    )
    p.add_argument("file", help="instance file (.imt native or .smt2 script)")
    p.add_argument(
        "--format",
        choices=("auto", "native", "smt"),
        default="auto",
        help="input format (default: by extension, then by first character)",
    )
    p.add_argument(
        "--default-bound",
        type=_non_negative,
        metavar="N",
        help="complete missing variable bounds with [-N, N]",
    )
    p.add_argument("--trace", metavar="PATH", help="write the derivation here")
    p.add_argument(
        "--replay",
        metavar="PATH",
        help="re-check a recorded derivation against FILE instead of solving",
    )
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check the answer by enumeration when the box is small",
    )
    p.add_argument("--node-budget", type=_non_negative, metavar="N", help="stop after N nodes")
    p.add_argument(
        "--cut-cap", type=_non_negative, metavar="N", help="cutting-plane rounds per node"
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = _load(args.file, args.format, args.default_bound)
        if args.replay:
            return _replay(args, job)
        return _solve(args, job)
    except (ImtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
