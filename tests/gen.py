"""Seeded random instances shared by tests and scripts.

Shapes follow the oracle-equivalence suite: at most 4 variables boxed in
[-5, 5], at most 6 rows, at most 2 unary uninterpreted functions, a random
linear objective, and optional annotated atoms. Everything stays inside the
enumeration oracle's comfort zone. ``random_cnf`` and ``cnf_script`` draw
3-CNF formulas and encode them as SMT-LIB scripts, ``ladder_script`` redraws
one formula of ``scripts/cnf_ladder.py``'s sequence, and ``chain_model``
builds a theory-heavy instance that is not random. ``root`` and ``iter_box``
build a subproblem from rows and enumerate a box's integer points.
"""
from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from imtsolver.model import (
    Bounds,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    LinExpr,
    Relation,
    Subproblem,
    normalize,
)

RELS = (Relation.LE, Relation.GE, Relation.EQ, Relation.LT, Relation.GT)


def root(cons: Iterable[LinConstraint], ident: int = 0) -> Subproblem:
    """The subproblem whose row set is ``cons``, normalized."""
    return Subproblem(ident, frozenset(normalize(c) for c in cons))


def iter_box(bounds: Bounds, names: Iterable[str]) -> Iterator[dict[str, int]]:
    """Lexicographic enumeration of all integer points over the sorted variables."""
    names = sorted(set(names))
    ranges = []
    for v in names:
        lo, hi = bounds.interval(v)
        if lo is None or hi is None:
            raise ValueError(f"cannot enumerate unbounded variable {v}")
        ranges.append(range(lo, hi + 1))
    for point in itertools.product(*ranges):
        yield dict(zip(names, point))


def random_expr(rng: random.Random, names: list[str], allow_zero: bool = False) -> LinExpr:
    terms = []
    for v in names:
        if rng.random() < 0.6:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            terms.append((v, c))
    if not terms and not allow_zero:
        terms.append((rng.choice(names), rng.choice([-2, -1, 1, 2])))
    return LinExpr.of(terms)


def random_instance(
    rng: random.Random,
    max_vars: int = 4,
    max_cons: int = 6,
    with_atoms: bool = True,
) -> ImtInstance:
    n = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(n)]
    table: dict[str, tuple[int, int]] = {}
    for v in names:
        if rng.random() < 0.3:
            table[v] = (0, 1)  # keep annotation candidates around
        else:
            lo = rng.randint(-5, 5)
            table[v] = (lo, rng.randint(lo, 5))

    # most rows are anchored to a witness point so feasible instances stay common
    witness = {v: rng.randint(*table[v]) for v in names}
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        lhs = random_expr(rng, names)
        rel = rng.choice(RELS)
        at = lhs.eval(witness)
        if rng.random() < 0.25:
            rhs = rng.randint(-8, 8)
        elif rel in (Relation.LE, Relation.LT):
            rhs = at + rng.randint(rel is Relation.LT, 4)
        elif rel in (Relation.GE, Relation.GT):
            rhs = at - rng.randint(rel is Relation.GT, 4)
        else:
            rhs = at
        cons.append(LinConstraint(lhs, rel, rhs))

    atoms: list[InterfaceAtom] = []
    funs: dict[str, int] = {}
    if with_atoms and rng.random() < 0.6:
        flags = [v for v in names if table[v] == (0, 1)]
        for _ in range(rng.randint(1, 3)):
            ann = rng.choice(flags) if flags and rng.random() < 0.5 else None
            if rng.random() < 0.6:
                f = f"f{rng.randint(0, 1)}"
                funs[f] = 1
                atoms.append(
                    InterfaceAtom.fun_def(rng.choice(names), f, [rng.choice(names)], ann)
                )
            elif n >= 2:
                x, y = rng.sample(names, 2)
                atoms.append(InterfaceAtom.eq_atom(x, y, ann))

    objective = random_expr(rng, names, allow_zero=True)
    return ImtInstance(names, Bounds(table), cons, atoms, objective, funs)


def random_lp_instance(rng: random.Random, max_vars: int = 3) -> ImtInstance:
    """Theory-free, fully boxed; for relaxation-level checks."""
    return random_instance(rng, max_vars=max_vars, with_atoms=False)


def random_cnf(rng: random.Random, nvars: int, nclauses: int) -> list[list[tuple[int, bool]]]:
    """``nclauses`` clauses over ``nvars`` variables, each on 3 distinct variables
    (all of them when fewer), as (variable index, positive) literals."""
    clauses = []
    for _ in range(nclauses):
        picked = rng.sample(range(nvars), min(3, nvars))
        clauses.append([(i, rng.random() < 0.5) for i in picked])
    return clauses


def cnf_script(clauses: list[list[tuple[int, bool]]], nvars: int) -> str:
    """The SMT-LIB script asserting ``clauses`` over Boolean constants p0, p1, ..."""
    lines = [f"(declare-const p{i} Bool)" for i in range(nvars)]
    for cl in clauses:
        lits = " ".join(f"p{i}" if pos else f"(not p{i})" for i, pos in cl)
        lines.append(f"(assert (or {lits}))")
    lines.append("(check-sat)")
    return "\n".join(lines)


def ladder_script(nvars: int, draw: int) -> str:
    """The script of draw ``draw`` (from 0) over ``nvars`` variables, as ``scripts/cnf_ladder.py`` draws it."""
    rng = random.Random(nvars)
    for _ in range(draw + 1):
        clauses = random_cnf(rng, nvars, round(4.5 * nvars))
    return cnf_script(clauses, nvars)


def chain_model(n: int) -> ImtInstance:
    """``x_i`` in [0, n-1], free ``r_i = f(x_i)`` with ``r_i - r_{i+1} >= 1``, min ``sum x_i``.

    The chain forces the ``x_i`` apart, so the optimum is n(n-1)/2.
    """
    xs, rs = [f"x{i}" for i in range(n)], [f"r{i}" for i in range(n)]
    return ImtInstance(
        xs + rs,
        Bounds({x: (0, n - 1) for x in xs}),
        [LinConstraint(LinExpr.of({rs[i]: 1, rs[i + 1]: -1}), Relation.GE, 1) for i in range(n - 1)],
        [InterfaceAtom.fun_def(r, "f", [x]) for r, x in zip(rs, xs)],
        LinExpr.of({x: 1 for x in xs}),
        {"f": 1},
    )
