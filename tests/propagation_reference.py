"""The interval propagation that re-sums a row's other variables for every bound.

This is ``imtsolver.lp.propagate_bounds`` as it was before each round took a
row's largest activity once, kept verbatim so that a test can hold the two
to the same derived rows, certificates, fixes and Farkas proofs, in the same
order. Its one change since is the row order it visits, which is an input
convention rather than what the comparison checks: ``lp._order``, as in the
module, since two different rows can render the same text.
"""
from __future__ import annotations

from fractions import Fraction

from imtsolver.certificates import BoundFix, CGCut, ComboEntry, FarkasProof
from imtsolver.lp import _PROPAGATION_ROUNDS, PropagationResult, _constant_row_proof, _order
from imtsolver.model import (
    Bounds,
    LinConstraint,
    LinExpr,
    Relation,
    Subproblem,
    Var,
    diff_equality,
    normalize,
)


def propagate_bounds(sub: Subproblem, bounds: Bounds) -> PropagationResult:
    """Tighten per-variable intervals; detect pinned differences and emptiness."""
    base_rows = sorted(map(normalize, sub.cons), key=_order)

    relevant: set[Var] = set()
    for row in base_rows:
        relevant.update(row.lhs.vars())

    work: dict[Var, list[int | None]] = {v: list(bounds.interval(v)) for v in relevant}
    # the base or derived row behind each tightened end; an end never tightened is the box's row
    cites: dict[Var, list[LinConstraint | None]] = {v: [None, None] for v in relevant}
    # a derived bound is strictly tighter than the box end it started from, so never a box row
    available: dict[LinConstraint, LinConstraint] = {row: row for row in base_rows}

    derived: list[tuple[LinConstraint, CGCut]] = []

    def lo_row(v: Var) -> LinConstraint:
        return cites[v][0] or bounds.row_lo(v)

    def hi_row(v: Var) -> LinConstraint:
        return cites[v][1] or bounds.row_hi(v)

    def record(cut: LinConstraint, coeffs: dict[Var, int], row: LinConstraint, direction: str, v: Var) -> LinConstraint:
        """Admit the bound on ``v`` that ``row`` gives from the other variables' current bounds; returns the row cited for it."""
        known = available.get(cut)
        if known is not None:
            return known
        scale = abs(coeffs[v])
        entries: list[ComboEntry] = [(row, direction, Fraction(1, scale))]
        for u, a_u in coeffs.items():
            if u == v:
                continue
            if a_u > 0:
                entries.append((hi_row(u), "le", Fraction(a_u, scale)))
            else:
                entries.append((lo_row(u), "ge", Fraction(-a_u, scale)))
        derived.append((cut, CGCut(tuple(entries))))
        available[cut] = cut
        return cut

    oriented: list[tuple[dict[Var, int], int, LinConstraint, str]] = []
    for row in base_rows:
        if not row.lhs.terms:
            proof = _constant_row_proof(row)
            if proof is not None:
                return PropagationResult([], derived, proof)
            continue
        if row.rel in (Relation.GE, Relation.EQ):
            oriented.append((dict(row.lhs.terms), row.rhs, row, "ge"))
        if row.rel in (Relation.LE, Relation.EQ):
            oriented.append(({v: -a for v, a in row.lhs.terms}, -row.rhs, row, "le"))

    for _ in range(_PROPAGATION_ROUNDS):
        improved = False
        for coeffs, rhs, row, direction in oriented:
            for v, a_v in coeffs.items():
                # the bound on v when every other variable sits at its worst end
                limit = rhs
                for u, a_u in coeffs.items():
                    if u != v:
                        end = work[u][1] if a_u > 0 else work[u][0]
                        if end is None:
                            break
                        limit -= a_u * end
                else:
                    if a_v > 0:
                        cand = -(-limit // a_v)
                        if work[v][0] is None or cand > work[v][0]:
                            work[v][0] = cand
                            cites[v][0] = record(LinConstraint(LinExpr.var(v), Relation.GE, cand), coeffs, row, direction, v)
                            improved = True
                    else:
                        cand = limit // a_v
                        if work[v][1] is None or cand < work[v][1]:
                            work[v][1] = cand
                            cites[v][1] = record(LinConstraint(LinExpr.var(v), Relation.LE, cand), coeffs, row, direction, v)
                            improved = True
                    lo, hi = work[v]
                    if lo is not None and hi is not None and lo > hi:
                        proof = FarkasProof(((lo_row(v), "ge", Fraction(1)), (hi_row(v), "le", Fraction(1))))
                        return PropagationResult([], derived, proof)
        if not improved:
            break

    # Opposing difference bounds fix x - y = c. A pinned variable gets no fix:
    # v >= c and v <= c are rows already (its interval starts at box rows and
    # moves only through record, which finds the row among the base rows or
    # derives it, learned first), and v = c would change no later step: same
    # LP column bounds and pivots, Gomory multiplier 0 (the tight v <= c sorts
    # first), no new propagated row and no literal's true arm.
    fixes: list[tuple[LinConstraint, BoundFix]] = []
    diff_lo: dict[tuple[Var, Var], tuple[Fraction, LinConstraint, str, Fraction]] = {}
    diff_hi: dict[tuple[Var, Var], tuple[Fraction, LinConstraint, str, Fraction]] = {}
    for coeffs, rhs, row, direction in oriented:
        if len(coeffs) != 2:
            continue
        (u1, a1), (u2, a2) = sorted(coeffs.items())
        if a1 != -a2:
            continue
        if a1 > 0:
            pair, scale = (u1, u2), Fraction(1, a1)
        else:
            pair, scale = (u2, u1), Fraction(1, -a1)
        ordered = (min(pair), max(pair))
        sign = 1 if pair == ordered else -1
        # bound on ordered difference: sign * (pair diff) >= rhs * scale
        val = Fraction(rhs) * scale
        if sign == 1:
            cur = diff_lo.get(ordered)
            if cur is None or val > cur[0]:
                diff_lo[ordered] = (val, row, direction, scale)
        else:
            cur = diff_hi.get(ordered)
            if cur is None or -val < cur[0]:
                diff_hi[ordered] = (-val, row, direction, scale)
    for pair in sorted(set(diff_lo) & set(diff_hi)):
        lo_val, lo_src, lo_dir, lo_scale = diff_lo[pair]
        hi_val, hi_src, hi_dir, hi_scale = diff_hi[pair]
        if lo_val != hi_val or lo_val.denominator != 1:
            continue
        eq = diff_equality(*pair, int(lo_val))
        if eq in sub.cons:
            continue
        fix = BoundFix(CGCut(((lo_src, lo_dir, lo_scale),)), CGCut(((hi_src, hi_dir, hi_scale),)))
        fixes.append((eq, fix))

    return PropagationResult(fixes, derived)
