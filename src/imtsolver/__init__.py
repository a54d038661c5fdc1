"""Branch-and-cut solver for integer linear programs with interface atoms.

The search engine explores subproblems and proposes every state change to a
small rule kernel; each change carries a certificate the kernel re-checks,
and the accepted step log replays independently. Uninterpreted functions
over the integers are the bundled background theory.
"""
from .engine import Config, EngineLimit, SolveResult, UnsupportedShape, solve
from .euf import EufAdapter, EufSession, functional_consistency
from .kernel import (
    ApplyInfo,
    Budgets,
    BudgetExceeded,
    Kernel,
    KernelState,
    ReplayError,
    RuleViolation,
    Step,
    initial_state,
    replay_trace,
    rows_of,
)
from .model import (
    Bounds,
    ImtError,
    ImtInstance,
    Incumbent,
    InterfaceAtom,
    InvariantError,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    SimpleEquality,
    Subproblem,
    obj_value,
)
from .native import ParseError, parse_instance, render_instance
from .oracle import BoxTooLarge, OracleResult, brute_force_solve
from .smtlib import EncodeResult, SmtError, UnboundedForEncoding, encode_script
from .trace import DigestMismatch, TraceError, read_trace, write_trace

__all__ = [
    "ApplyInfo",
    "Bounds",
    "BoxTooLarge",
    "BudgetExceeded",
    "Budgets",
    "Config",
    "DigestMismatch",
    "EncodeResult",
    "EngineLimit",
    "EufAdapter",
    "EufSession",
    "ImtError",
    "ImtInstance",
    "Incumbent",
    "InterfaceAtom",
    "InvariantError",
    "Kernel",
    "KernelState",
    "LinConstraint",
    "LinExpr",
    "ObjValue",
    "OracleResult",
    "ParseError",
    "Relation",
    "ReplayError",
    "RuleViolation",
    "SimpleEquality",
    "SmtError",
    "SolveResult",
    "Step",
    "Subproblem",
    "TraceError",
    "UnboundedForEncoding",
    "UnsupportedShape",
    "brute_force_solve",
    "encode_script",
    "functional_consistency",
    "initial_state",
    "obj_value",
    "parse_instance",
    "read_trace",
    "render_instance",
    "replay_trace",
    "rows_of",
    "solve",
    "write_trace",
]
