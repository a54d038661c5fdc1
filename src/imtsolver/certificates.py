"""Certificate payloads and their checkers.

Every certificate is checkable against a subproblem's row set without
re-running any search or simplex code. A row set is the subproblem's rows
C, which hold the rows of its propagated and branched-on equalities, and the
instance box rendered as one row per finite bound end.

Nonnegative-combination checking is the shared primitive: an entry
``(row, direction, multiplier)`` contributes ``multiplier * row`` oriented
to a >= inequality. A row with relation >= supports direction "ge", <=
supports "le", and an equality row supports both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet

from .model import (
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    SimpleEquality,
    Var,
)


class CheckFailed(Exception):
    """A certificate failed validation; the message names the side condition."""


@dataclass(frozen=True)
class TheoryLiteral:
    """Literal of the theory interface: offset (dis)equality or atom sign."""

    kind: str  # "eq" | "diseq" | "atom_true" | "atom_false"
    x: Var | None = None
    y: Var | None = None
    offset: int = 0
    var: Var | None = None

    @staticmethod
    def var_eq(x: Var, y: Var, offset: int = 0) -> TheoryLiteral:
        return TheoryLiteral("eq", x, y, offset)

    @staticmethod
    def var_diseq(x: Var, y: Var, offset: int = 0) -> TheoryLiteral:
        return TheoryLiteral("diseq", x, y, offset)

    @staticmethod
    def atom_true(v: Var) -> TheoryLiteral:
        return TheoryLiteral("atom_true", var=v)

    @staticmethod
    def atom_false(v: Var) -> TheoryLiteral:
        return TheoryLiteral("atom_false", var=v)

    def render(self) -> str:
        if self.kind == "eq":
            return f"{self.x} = {self.y} + {self.offset}"
        if self.kind == "diseq":
            return f"{self.x} != {self.y} + {self.offset}"
        if self.kind == "atom_true":
            return f"{self.var} > 0"
        return f"{self.var} <= 0"


# One combination entry: (row, direction, multiplier >= 0).
ComboEntry = tuple[LinConstraint, str, Fraction]


@dataclass(frozen=True)
class CGCut:
    """Chvatal-Gomory derivation: nonnegative combination, integral aggregate, rounded rhs."""

    entries: tuple[ComboEntry, ...]


@dataclass(frozen=True)
class FarkasProof:
    """Nonnegative combination aggregating to 0 >= positive."""

    entries: tuple[ComboEntry, ...]


@dataclass(frozen=True)
class BoundFix:
    """Pair of one-sided derivations pinning an equality: lower proves >=, upper proves <=."""

    lower: CGCut
    upper: CGCut


@dataclass(frozen=True)
class LbDual:
    """Claimed objective lower bound with its dual derivation.

    A finite bound b is backed by a combination whose aggregate equals the
    objective and whose rounded right side reaches b. A +inf bound is backed
    by infeasibility (Farkas). A -inf bound claims nothing.
    """

    bound: ObjValue
    entries: tuple[ComboEntry, ...] = ()


@dataclass(frozen=True)
class TheoryToken:
    """Opaque acceptance record issued by the registered theory solver.

    The kernel trusts the issuing theory but records the bound literal set
    (and assignment digest) so replays can independently re-check the claim.
    """

    kind: str  # "model" | "conflict"
    literals: tuple[TheoryLiteral, ...] = ()


@dataclass(frozen=True)
class SideCut:
    """One-sided derivation for an entailed disequality: which arm holds, and its proof."""

    side: str  # "le" proves x - y <= offset - 1; "ge" proves x - y >= offset + 1
    cut: CGCut


# Evidence that a theory literal is entailed by the subproblem rows:
# BoundFix for an equality, CGCut for an atom sign, SideCut for a disequality.
LiteralEvidence = BoundFix | CGCut | SideCut


@dataclass(frozen=True)
class TLemma:
    """Theory lemma: literals entailed by the rows, lemma endorsed by the theory."""

    asserted: tuple[TheoryLiteral, ...]
    lemma: LinConstraint
    evidence: tuple[LiteralEvidence, ...]
    token: TheoryToken


@dataclass(frozen=True)
class BranchDichotomy:
    """Two-way split on an integer variable: v <= k or v >= k+1."""

    var: Var
    k: int


@dataclass(frozen=True)
class BranchTrichotomy:
    """Three-way split on a difference: x - y <= c-1, x - y = c, x - y >= c+1."""

    x: Var
    y: Var
    c: int


@dataclass(frozen=True)
class BranchConflictSplit:
    """Sequential case split over a theory conflict core."""

    core: tuple[TheoryLiteral, ...]


@dataclass(frozen=True)
class RetireEvidence:
    """Feasible improving assignment plus a matching lower bound and theory acceptance."""

    assignment: tuple[tuple[Var, int], ...]
    lb_match: LbDual
    token: TheoryToken

    def assignment_dict(self) -> dict[Var, int]:
        return dict(self.assignment)


@dataclass(frozen=True)
class UnboundedEvidence:
    """Feasible assignment and an integral ray along which the objective drops forever."""

    assignment: tuple[tuple[Var, int], ...]
    ray: tuple[tuple[Var, int], ...]
    token: TheoryToken

    def assignment_dict(self) -> dict[Var, int]:
        return dict(self.assignment)

    def ray_dict(self) -> dict[Var, int]:
        return dict(self.ray)


@dataclass(frozen=True)
class SubsumeSyntactic:
    """Syntactic inclusion witness: the kept subproblem's rows are a subset."""


def combo_aggregate(
    entries: tuple[ComboEntry, ...], available: AbstractSet[LinConstraint]
) -> tuple[dict[Var, int], int, int]:
    """Aggregate a nonnegative combination of available rows, oriented to >=.

    Returns ``(agg, rhs, den)``: the aggregate expression is ``agg / den``
    with no zero entry and its right side is ``rhs / den``, over one positive
    common denominator. Raises CheckFailed if a multiplier is negative, a row
    is not available, or a direction is illegal for the row's relation.
    """
    agg: dict[Var, int] = {}
    rhs, den = 0, 1
    for row, direction, mult in entries:
        if not isinstance(mult, Fraction):
            mult = Fraction(mult)
        k, d = mult.numerator, mult.denominator
        if k < 0:
            raise CheckFailed(f"negative multiplier {mult}")
        if row not in available:
            raise CheckFailed(f"combination references a row outside the subproblem: {row.render()}")
        if direction == "ge":
            if row.rel not in (Relation.GE, Relation.EQ):
                raise CheckFailed(f"direction ge illegal for {row.render()}")
        elif direction == "le":
            if row.rel not in (Relation.LE, Relation.EQ):
                raise CheckFailed(f"direction le illegal for {row.render()}")
            k = -k
        else:
            raise CheckFailed(f"unknown direction {direction!r}")
        if den % d:
            grow = d // math.gcd(den, d)
            agg = {v: c * grow for v, c in agg.items()}
            rhs *= grow
            den *= grow
        k *= den // d
        for v, c in row.lhs.terms:
            agg[v] = agg.get(v, 0) + k * c
        rhs += k * row.rhs
    return {v: c for v, c in agg.items() if c}, rhs, den


def _ceil(n: int, d: int) -> int:
    return -(-n // d)


def check_farkas(proof: FarkasProof, available: AbstractSet[LinConstraint]) -> None:
    """Valid iff the aggregate is the zero expression with a positive right side."""
    agg, rhs, den = combo_aggregate(proof.entries, available)
    if agg:
        raise CheckFailed("Farkas aggregate does not cancel")
    if rhs <= 0:
        raise CheckFailed(f"Farkas aggregate right side {Fraction(rhs, den)} is not positive")


def _as_ge(c: LinConstraint) -> tuple[dict[Var, int], int]:
    """Orient a claimed inequality to >= form; equalities are rejected."""
    if c.rel is Relation.GE:
        return dict(c.lhs.terms), c.rhs
    if c.rel is Relation.LE:
        return {v: -k for v, k in c.lhs.terms}, -c.rhs
    raise CheckFailed(f"cut target must be an inequality: {c.render()}")


def check_cg(cut: CGCut, available: AbstractSet[LinConstraint], claimed: LinConstraint) -> None:
    """Chvatal-Gomory validity of ``claimed`` from available rows.

    The combination's aggregate must have integer coefficients matching the
    claimed left side exactly; integer rounding of the aggregate right side
    must reach (or exceed) the claimed right side.
    """
    want_lhs, want_rhs = _as_ge(claimed)
    agg, rhs, den = combo_aggregate(cut.entries, available)
    for v, c in agg.items():
        if c % den:
            raise CheckFailed(f"aggregate coefficient of {v} is fractional: {Fraction(c, den)}")
    if {v: c // den for v, c in agg.items()} != want_lhs:
        raise CheckFailed("aggregate expression does not match the claimed cut")
    if _ceil(rhs, den) < want_rhs:
        raise CheckFailed(f"rounded aggregate {_ceil(rhs, den)} does not reach claimed {want_rhs}")


def check_bound_fix(fix: BoundFix, available: AbstractSet[LinConstraint], d: SimpleEquality) -> None:
    """Both directions of the simple equality must be derivable."""
    expr = d.as_constraint().lhs
    check_cg(fix.lower, available, LinConstraint(expr, Relation.GE, d.c))
    check_cg(fix.upper, available, LinConstraint(expr, Relation.LE, d.c))


def check_lb_dual(cert: LbDual, available: AbstractSet[LinConstraint], objective: LinExpr) -> None:
    """Soundness of a claimed objective lower bound over the row set."""
    if cert.bound.kind == -1:
        return  # -inf claims nothing
    if cert.bound.kind == 1:
        check_farkas(FarkasProof(cert.entries), available)
        return
    agg, rhs, den = combo_aggregate(cert.entries, available)
    if agg != {v: c * den for v, c in objective.terms}:
        raise CheckFailed("dual aggregate does not match the objective")
    if cert.bound.value > _ceil(rhs, den):
        raise CheckFailed(f"claimed bound {cert.bound.value} exceeds certified {_ceil(rhs, den)}")


def check_literal_evidence(
    lit: TheoryLiteral, ev: LiteralEvidence, available: AbstractSet[LinConstraint]
) -> None:
    """The literal must be entailed by the rows via the attached derivation."""
    if lit.kind == "eq":
        if not isinstance(ev, BoundFix):
            raise CheckFailed("equality literal needs a BoundFix")
        check_bound_fix(ev, available, SimpleEquality.diff(lit.x, lit.y, lit.offset))
    elif lit.kind == "diseq":
        if not isinstance(ev, SideCut):
            raise CheckFailed("disequality literal needs a SideCut")
        expr = LinExpr.of({lit.x: 1, lit.y: -1})
        if ev.side == "le":
            target = LinConstraint(expr, Relation.LE, lit.offset - 1)
        elif ev.side == "ge":
            target = LinConstraint(expr, Relation.GE, lit.offset + 1)
        else:
            raise CheckFailed(f"unknown disequality side {ev.side!r}")
        check_cg(ev.cut, available, target)
    elif lit.kind in ("atom_true", "atom_false"):
        if not isinstance(ev, CGCut):
            raise CheckFailed("atom literal needs a CGCut")
        rel, rhs = (Relation.GE, 1) if lit.kind == "atom_true" else (Relation.LE, 0)
        check_cg(ev, available, LinConstraint(LinExpr.var(lit.var), rel, rhs))
    else:
        raise CheckFailed(f"unknown literal kind {lit.kind!r}")


def identity_cut(row: LinConstraint, direction: str) -> CGCut:
    """Single-row derivation reusing the row itself with multiplier one."""
    return CGCut(((row, direction, Fraction(1)),))
