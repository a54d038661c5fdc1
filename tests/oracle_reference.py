"""Plain full-box scan, the reference for ``imtsolver.oracle``.

It visits every point of the box in lexicographic order over the sorted
variable names and evaluates every row densely, with nothing skipped, so a
property test can check that the oracle's shortcuts change no answer.
"""
from __future__ import annotations

from gen import iter_box
from imtsolver.euf import functional_consistency
from imtsolver.model import ImtInstance, satisfies_all
from imtsolver.oracle import OracleResult


def full_box_scan(instance: ImtInstance) -> OracleResult:
    names = sorted(instance.vars)
    atoms = tuple(instance.atoms)
    best_value = best_point = None
    feasible = 0
    for point in iter_box(instance.bounds, names):
        if not satisfies_all(instance.constraints, point):
            continue
        if atoms and not functional_consistency(atoms, point):
            continue
        feasible += 1
        value = instance.objective.eval(point)
        vals = tuple(point[v] for v in names)
        if best_value is None or value < best_value or (value == best_value and vals < best_point):
            best_value, best_point = value, vals
    if best_point is None:
        return OracleResult("infeasible", None, None, 0)
    return OracleResult("optimal", best_value, dict(zip(names, best_point)), feasible)
