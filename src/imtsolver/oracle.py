"""Brute-force reference solver: enumerate the box, filter, minimize.

Slow by design. It exists so that everything the search engine reports can
be cross-checked on small instances, including the theory part: a point
counts as feasible only if the linear rows hold and some interpretation of
the declared functions agrees with every interface atom.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .euf import functional_consistency
from .model import ImtError, ImtInstance, Relation, Var

DEFAULT_POINT_LIMIT = 2_000_000

_HOLDS = {
    Relation.LE: operator.le,
    Relation.GE: operator.ge,
    Relation.EQ: operator.eq,
    Relation.LT: operator.lt,
    Relation.GT: operator.gt,
}


class BoxTooLarge(ImtError):
    """Enumeration would be unbounded or past the point limit."""


@dataclass(frozen=True)
class OracleResult:
    status: str  # "optimal" | "infeasible"
    value: int | None
    assignment: dict[Var, int] | None
    feasible_count: int


def brute_force_solve(
    instance: ImtInstance, point_limit: int = DEFAULT_POINT_LIMIT
) -> OracleResult:
    """Scan every integer point of the box; smallest objective wins, then
    the lexicographically smallest assignment over sorted variable names."""
    names = sorted(instance.vars)
    volume = instance.bounds.volume(names)
    if volume is None:
        raise BoxTooLarge("some variable has no finite box to enumerate")
    if volume > point_limit:
        raise BoxTooLarge(f"box holds {volume} points, limit is {point_limit}")

    # each row becomes sparse (position, coefficient) terms with its comparison
    # chosen once; a one-variable equality pins its variable instead, since
    # every other value of that variable fails the row
    index = {v: i for i, v in enumerate(names)}
    ranges = []
    for v in names:
        lo, hi = instance.bounds.interval(v)
        ranges.append(range(lo, hi + 1))
    compiled = []
    for c in instance.constraints:
        terms = tuple((index[v], k) for v, k in c.lhs.terms)
        if c.rel is Relation.EQ and len(terms) == 1:
            i, k = terms[0]
            pin = c.rhs // k
            ranges[i] = range(pin, pin + 1) if c.rhs % k == 0 and pin in ranges[i] else range(0)
            continue
        compiled.append((terms, _HOLDS[c.rel], c.rhs))
    obj_terms = tuple((index[v], k) for v, k in instance.objective.terms)

    atoms = tuple(instance.atoms)
    best_value: int | None = None
    best_point: tuple[int, ...] | None = None
    feasible = 0
    for vals in itertools.product(*ranges):
        for terms, holds, rhs in compiled:
            if not holds(sum([k * vals[i] for i, k in terms]), rhs):
                break
        else:
            if atoms and not functional_consistency(atoms, dict(zip(names, vals))):
                continue
            feasible += 1
            value = sum([k * vals[i] for i, k in obj_terms])
            if best_value is None or value < best_value or (value == best_value and vals < best_point):
                best_value, best_point = value, vals

    if best_point is None:
        return OracleResult("infeasible", None, None, 0)
    return OracleResult("optimal", best_value, dict(zip(names, best_point)), feasible)
