"""Dense ``Fraction`` reference for the combination checks.

The checks in ``imtsolver.certificates`` aggregate integer numerators over
one common denominator. These are the same checks written directly over
``Fraction`` values, message for message, so a property test can hold the
two to the same verdicts and the same rejection messages.
"""
from __future__ import annotations

from fractions import Fraction

from imtsolver.certificates import CheckFailed
from imtsolver.model import LinConstraint, LinExpr, Relation, frac_ceil


def combo_aggregate(entries, available) -> tuple[dict, Fraction]:
    agg: dict = {}
    rhs = Fraction(0)
    for row, direction, mult in entries:
        mult = Fraction(mult)
        if mult < 0:
            raise CheckFailed(f"negative multiplier {mult}")
        if row not in available:
            raise CheckFailed(f"combination references a row outside the subproblem: {row.render()}")
        if direction == "ge":
            if row.rel not in (Relation.GE, Relation.EQ):
                raise CheckFailed(f"direction ge illegal for {row.render()}")
            sign = 1
        elif direction == "le":
            if row.rel not in (Relation.LE, Relation.EQ):
                raise CheckFailed(f"direction le illegal for {row.render()}")
            sign = -1
        else:
            raise CheckFailed(f"unknown direction {direction!r}")
        for v, c in row.lhs.terms:
            agg[v] = agg.get(v, Fraction(0)) + sign * mult * c
        rhs += sign * mult * row.rhs
    return {v: c for v, c in agg.items() if c != 0}, rhs


def check_farkas(entries, available) -> None:
    agg, rhs = combo_aggregate(entries, available)
    if agg:
        raise CheckFailed("Farkas aggregate does not cancel")
    if rhs <= 0:
        raise CheckFailed(f"Farkas aggregate right side {rhs} is not positive")


def check_cg(entries, available, claimed: LinConstraint) -> None:
    if claimed.rel is Relation.GE:
        want_lhs, want_rhs = dict(claimed.lhs.terms), claimed.rhs
    elif claimed.rel is Relation.LE:
        want_lhs, want_rhs = {v: -k for v, k in claimed.lhs.terms}, -claimed.rhs
    else:
        raise CheckFailed(f"cut target must be an inequality: {claimed.render()}")
    agg, rhs = combo_aggregate(entries, available)
    agg_int = {}
    for v, c in agg.items():
        if c.denominator != 1:
            raise CheckFailed(f"aggregate coefficient of {v} is fractional: {c}")
        agg_int[v] = int(c)
    if agg_int != want_lhs:
        raise CheckFailed("aggregate expression does not match the claimed cut")
    if frac_ceil(rhs) < want_rhs:
        raise CheckFailed(f"rounded aggregate {frac_ceil(rhs)} does not reach claimed {want_rhs}")


def check_lb_dual(value: int, entries, available, objective: LinExpr) -> None:
    agg, rhs = combo_aggregate(entries, available)
    if agg != {v: Fraction(c) for v, c in objective.terms}:
        raise CheckFailed("dual aggregate does not match the objective")
    if value > frac_ceil(rhs):
        raise CheckFailed(f"claimed bound {value} exceeds certified {frac_ceil(rhs)}")
