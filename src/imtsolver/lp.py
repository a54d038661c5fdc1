"""Exact rational relaxation: simplex, dual certificates, rounding cuts, propagation.

The solver is a two-phase primal simplex, then a dual simplex re-optimising
after each cut round, both with Bland's rule, so it terminates on every
input, and its answers are exact. Within one node's cut loop the previous
optimum's simplex is kept: each cut is appended with its slack basic and
rewritten in the current basis, the dual simplex restores feasibility, and
rows forgotten as dominated leave with their basic slacks. Any other change
is solved from scratch. The tableau is sparse and integer-preserving: each
row stores only its nonzero entries, as ``int`` numerators over one positive
row denominator, and is divided by the gcd of its numbers after every update
(Edmonds' fraction-free elimination). No ``Fraction`` is built inside a
pivot; values become ``Fraction`` only when they leave the tableau. The
Gaussian elimination that recovers Gomory multipliers uses the same rows,
once for all fractional targets. Box bounds participate as explicit rows;
lower-bound rows of the form v >= lo are folded into column nonnegativity by
shifting, and the matching dual multiplier is read off the column's reduced
cost.

Every outcome carries a certificate in the shared combination format:
infeasibility yields Farkas multipliers, optimality yields dual multipliers
reproducing the objective, and unboundedness yields a feasible point plus an
improving ray.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .certificates import (
    BoundFix,
    CGCut,
    ComboEntry,
    FarkasProof,
    LbDual,
    check_cg,
    check_farkas,
    check_lb_dual,
    identity_cut,
)
from .model import (
    Bounds,
    ImtError,
    InvariantError,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    SimpleEquality,
    Subproblem,
    Var,
    frac_ceil,
    normalize,
)


class NoFractionalRow(ImtError):
    """Cut derivation was asked for on an integral optimum."""


@dataclass(frozen=True)
class Tableau:
    """Snapshot of an optimal relaxation, sufficient to derive rounding cuts."""

    rows: tuple[LinConstraint, ...]
    x_star: dict[Var, Fraction]
    objective: LinExpr
    value: Fraction


@dataclass(frozen=True)
class LpOptimal:
    """An optimal vertex; ``pivots`` counts this solve's simplex pivots."""

    x_star: dict[Var, Fraction]
    value: Fraction
    dual: tuple[ComboEntry, ...]
    tableau: Tableau
    pivots: int = 0
    # the live simplex, which the node's next cut round re-optimises in place
    state: _Relaxation | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class LpInfeasible:
    farkas: FarkasProof
    pivots: int = 0


@dataclass(frozen=True)
class LpUnbounded:
    point: dict[Var, Fraction]
    ray: dict[Var, Fraction]
    pivots: int = 0


LpOutcome = LpOptimal | LpInfeasible | LpUnbounded


def assemble_rows(sub: Subproblem, bounds: Bounds, objective: LinExpr = LinExpr()) -> list[LinConstraint]:
    """All rows visible to the relaxation: C, D rendered, finite bound ends."""
    rows: set[LinConstraint] = set()
    relevant: set[Var] = set(objective.vars())
    for c in sub.cons:
        rows.add(normalize(c))
        relevant.update(c.lhs.vars())
    for d in sub.eqs:
        row = d.as_constraint()
        rows.add(row)
        relevant.update(row.lhs.vars())
    for v in relevant:
        lo, hi = bounds.interval(v)
        if lo is not None:
            rows.add(bounds.row_lo(v))
        if hi is not None:
            rows.add(bounds.row_hi(v))
    return sorted(rows, key=lambda r: r.render())


Row = tuple[dict[int, int], int, int]


def _reduce(nums: dict[int, int], rhs: int, den: int) -> Row:
    """Divide a row by the gcd of its numerators, right side and denominator."""
    if den == 1:
        return nums, rhs, den
    g = math.gcd(den, rhs, *nums.values())
    if g == 1:
        return nums, rhs, den
    return {k: v // g for k, v in nums.items()}, rhs // g, den // g


def _unit_row(nums: dict[int, int], rhs: int, j: int) -> Row:
    """The row divided by its entry in column ``j``; the denominators cancel."""
    p = nums[j]
    if p < 0:
        return _reduce({k: -v for k, v in nums.items()}, -rhs, -p)
    return _reduce(nums, rhs, p)


def _eliminate(nums: dict[int, int], rhs: int, den: int, f: int, src: Row) -> Row:
    """Subtract ``f / den`` times ``src`` from the row; may update ``nums`` in place.

    Only the nonzeros of ``src`` are walked, unless the row must first be
    brought to a multiple of ``src``'s denominator.
    """
    src_nums, src_rhs, src_den = src
    g = math.gcd(f, src_den)
    scale = src_den // g
    f //= g
    if scale != 1:
        nums = {k: v * scale for k, v in nums.items()}
        rhs *= scale
        den *= scale
    for k, s in src_nums.items():
        v = nums.get(k, 0) - f * s
        if v:
            nums[k] = v
        else:
            del nums[k]
    return _reduce(nums, rhs - f * src_rhs, den)


class _Simplex:
    """Sparse integer-preserving tableau with Bland pivoting; columns are built by the caller.

    Row ``r`` reads ``sum_j nums[r][j] / den[r] * x_j = rhs[r] / den[r]``.
    ``nums[r]`` holds only nonzero ``int`` numerators, ``den[r]`` is positive,
    and the numerators, right side and denominator of a row share no factor.
    The reduced-cost row is stored the same way in ``cost``, ``costval`` and
    ``cost_den``, with ``costval`` the negated objective value.
    """

    def __init__(self) -> None:
        self.nums: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.alive: list[bool] = []
        self.cost: dict[int, int] = {}
        self.costval = 0
        self.cost_den = 1
        self.pivots = 0

    def add_row(self, coeffs: dict[int, int], rhs: int, den: int = 1) -> int:
        self.nums.append({j: a for j, a in coeffs.items() if a})
        self.rhs.append(rhs)
        self.den.append(den)
        self.basis.append(-1)
        self.alive.append(True)
        return len(self.nums) - 1

    def remove_row(self, r: int) -> None:
        for table in (self.nums, self.rhs, self.den, self.basis, self.alive):
            del table[r]

    def row(self, r: int) -> Row:
        return self.nums[r], self.rhs[r], self.den[r]

    def price(self, costs: list[int]) -> None:
        """Rebuild the reduced-cost row for the given integer column costs."""
        cost: Row = ({j: c for j, c in enumerate(costs) if c}, 0, 1)
        for r, alive in enumerate(self.alive):
            if not alive:
                continue
            cb = costs[self.basis[r]]
            if cb:
                cost = _eliminate(*cost, cb * cost[2], self.row(r))
        self.cost, self.costval, self.cost_den = cost

    def pivot(self, r: int, j: int) -> None:
        self.pivots += 1
        src = _unit_row(self.nums[r], self.rhs[r], j)
        self.nums[r], self.rhs[r], self.den[r] = src
        for i, other in enumerate(self.nums):
            if i == r or not self.alive[i]:
                continue
            f = other.get(j)
            if f:
                self.nums[i], self.rhs[i], self.den[i] = _eliminate(other, self.rhs[i], self.den[i], f, src)
        f = self.cost.get(j)
        if f:
            self.cost, self.costval, self.cost_den = _eliminate(self.cost, self.costval, self.cost_den, f, src)
        self.basis[r] = j

    def run(self, enterable: list[bool]) -> tuple[str, int]:
        """Bland iteration to optimality; returns ("optimal", -1) or ("unbounded", col)."""
        guard = 0
        while True:
            guard += 1
            if guard > 200000:
                raise ImtError("pivot limit exceeded")
            enter = min((j for j, c in self.cost.items() if c < 0 and enterable[j]), default=-1)
            if enter < 0:
                return ("optimal", -1)
            # ratio rhs/a per row, compared by cross-multiplying; ties go to the lowest basic column
            leave = -1
            best_rhs = best_a = 0
            for r, row in enumerate(self.nums):
                a = row.get(enter)
                if a is None or a < 0 or not self.alive[r]:
                    continue
                rhs = self.rhs[r]
                if leave < 0 or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and self.basis[r] < self.basis[leave]
                ):
                    leave, best_rhs, best_a = r, rhs, a
            if leave < 0:
                return ("unbounded", enter)
            self.pivot(leave, enter)

    def run_dual(self, enterable: list[bool]) -> int:
        """Bland's dual simplex from a dual-feasible basis to primal feasibility.

        Returns -1 once every right side is nonnegative, or a row with a
        negative right side and no negative enterable entry, which proves the
        rows infeasible.
        """
        guard = 0
        while True:
            guard += 1
            if guard > 200000:
                raise ImtError("pivot limit exceeded")
            # the infeasible row with the lowest basic column leaves
            leave = -1
            for r, rhs in enumerate(self.rhs):
                if rhs < 0 and self.alive[r] and (leave < 0 or self.basis[r] < self.basis[leave]):
                    leave = r
            if leave < 0:
                return -1
            # ratio cost/-a per column, compared by cross-multiplying; ties go to the lowest column
            enter = -1
            best_cost = best_a = 0
            for j, a in self.nums[leave].items():
                if a >= 0 or not enterable[j]:
                    continue
                cost = self.cost.get(j, 0)
                if enter < 0 or cost * best_a > best_cost * a or (
                    cost * best_a == best_cost * a and j < enter
                ):
                    enter, best_cost, best_a = j, cost, a
            if enter < 0:
                return leave
            self.pivot(leave, enter)

    def entry(self, r: int, j: int) -> Fraction:
        return Fraction(self.nums[r].get(j, 0), self.den[r])

    def column_value(self, j: int) -> Fraction:
        for r, b in enumerate(self.basis):
            if b == j and self.alive[r]:
                return Fraction(self.rhs[r], self.den[r])
        return Fraction(0)


class _Relaxation:
    """A solved simplex and the map from its columns and rows back to variables and constraints.

    Each variable with a lower bound is shifted onto one nonnegative column,
    and a free variable is split into a ``pos``/``neg`` column pair.
    ``specs[i]`` is ``(row, sigma, ref, slack)`` for the i-th tableau
    constraint: ``sigma`` times the row is in ``<=`` or ``=`` form, ``ref`` is
    the column that has coefficient +1 in that constraint alone (its slack,
    else its artificial), so its reduced cost gives the row's multiplier, and
    ``slack`` is the slack column or -1. ``lo_row_of`` maps a shifted variable
    to the ``v >= lo`` row folded into its column's nonnegativity.
    """

    def __init__(
        self, objective: LinExpr, names: list[Var], shifts: dict[Var, int], lo_row_of: dict[Var, LinConstraint]
    ):
        self.objective = objective
        self.names = names
        self.shifts = shifts
        self.lo_row_of = lo_row_of
        self.pos_col: dict[Var, int] = {}
        self.neg_col: dict[Var, int] = {}
        for v in names:
            self.pos_col[v] = len(self.pos_col) + len(self.neg_col)
            if v not in shifts:
                self.neg_col[v] = len(self.pos_col) + len(self.neg_col)
        self.specs: list[tuple[LinConstraint, int, int, int]] = []
        self.enterable: list[bool] = []
        self.costs: list[int] = []  # phase-2 column costs
        self.sx = _Simplex()
        self.retired = False  # phase 1 retired a dependent row
        # the rows of the latest optimum, which the next re-optimisation starts from
        self.rows: tuple[LinConstraint, ...] = ()
        self.available: frozenset[LinConstraint] = frozenset()

    def structural(self, coeffs: dict[Var, int]) -> dict[int, int]:
        """A row's variable coefficients laid out over the structural columns."""
        sparse: dict[int, int] = {}
        for v, a in coeffs.items():
            sparse[self.pos_col[v]] = a
            if v in self.neg_col:
                sparse[self.neg_col[v]] = -a
        return sparse

    def dual_entries(self, costs: list[int]) -> list[ComboEntry]:
        """Row multipliers read off the reduced-cost row priced with ``costs``."""
        sx = self.sx
        entries: list[ComboEntry] = []
        for row, sigma, ref, _ in self.specs:
            # y = costs[ref] - reduced cost of ref, over the cost row's denominator
            y = costs[ref] * sx.cost_den - sx.cost.get(ref, 0)
            if y == 0:
                continue
            mu = Fraction(sigma * y, sx.cost_den)
            if row.rel is Relation.GE:
                if mu < 0:
                    raise InvariantError("dual sign clash on a >= row")
                entries.append((row, "ge", mu))
            elif row.rel is Relation.LE:
                if mu > 0:
                    raise InvariantError("dual sign clash on a <= row")
                entries.append((row, "le", -mu))
            else:
                entries.append((row, "ge" if mu > 0 else "le", abs(mu)))
        for v, row in self.lo_row_of.items():
            rc = sx.cost.get(self.pos_col[v], 0)
            if rc != 0:
                if rc < 0:
                    raise InvariantError("reduced cost of a shifted column went negative")
                entries.append((row, "ge", Fraction(rc, sx.cost_den)))
        return entries

    def point(self) -> dict[Var, Fraction]:
        point = {}
        for v in self.names:
            val = self.sx.column_value(self.pos_col[v])
            if v in self.neg_col:
                val = val - self.sx.column_value(self.neg_col[v])
            point[v] = val + self.shifts.get(v, 0)
        return point

    def ray(self, enter: int) -> dict[Var, Fraction]:
        sx = self.sx
        dz = {enter: Fraction(1)}
        for r, row in enumerate(sx.nums):
            if sx.alive[r] and enter in row:
                dz[sx.basis[r]] = -sx.entry(r, enter)
        ray = {}
        for v in self.names:
            d = dz.get(self.pos_col[v], Fraction(0))
            if v in self.neg_col:
                d = d - dz.get(self.neg_col[v], Fraction(0))
            if d != 0:
                ray[v] = d
        return ray

    def optimal(self, rows: list[LinConstraint], available: frozenset[LinConstraint], pivots: int) -> LpOptimal:
        x_star = self.point()
        value = Fraction(0)
        for v, c in self.objective.terms:
            value += c * x_star[v]
        dual = tuple(self.dual_entries(self.costs))
        bound = ObjValue.finite(frac_ceil(value))
        check_lb_dual(LbDual(bound, dual), available, self.objective)
        tableau = Tableau(tuple(rows), x_star, self.objective, value)
        self.rows, self.available = tableau.rows, available
        return LpOptimal(x_star, value, dual, tableau, pivots, self)

    def reoptimize(self, prev: LpOptimal, rows: list[LinConstraint], objective: LinExpr) -> LpOutcome | None:
        """Re-solve in place after one-sided rows were added and dominated rows forgotten.

        Each added row gets a basic slack and is rewritten in the current
        basis; the dual simplex then restores feasibility. A forgotten row is
        dominated by a kept row with the same left side, so it is strictly
        slack at the new optimum and leaves with its basic slack. Returns
        None, for a solve from scratch, on any other change.
        """
        if prev.tableau.rows is not self.rows or objective != self.objective:
            return None
        available = frozenset(rows)
        if _relevant_vars(rows, objective) != set(self.names):
            return None
        added = [row for row in rows if row not in self.available]
        removed = [row for row in self.rows if row not in available]
        if any(not row.lhs.terms or row.rel is Relation.EQ for row in added):
            return None
        folded = set(self.lo_row_of.values())
        if removed and (self.retired or any(row.rel is Relation.EQ or row in folded for row in removed)):
            return None

        sx = self.sx
        start = sx.pivots
        self.rows = ()  # from here the simplex no longer matches prev
        basic_row = {b: r for r, b in enumerate(sx.basis) if sx.alive[r]}
        for row in added:
            sigma = -1 if row.rel is Relation.GE else 1
            terms = dict(row.lhs.terms)
            rhs = sigma * (row.rhs - sum(a * self.shifts.get(v, 0) for v, a in terms.items()))
            slack = len(self.enterable)
            self.enterable.append(True)
            self.costs.append(0)
            cut: Row = (self.structural({v: sigma * a for v, a in terms.items()}), rhs, 1)
            cut[0][slack] = 1
            for j in [j for j in cut[0] if j in basic_row]:
                cut = _eliminate(*cut, cut[0][j], sx.row(basic_row[j]))
            sx.basis[sx.add_row(*cut)] = slack
            self.specs.append((row, sigma, slack, slack))

        leave = sx.run_dual(self.enterable)
        if leave >= 0:
            # the row's multipliers, read as a reduced-cost row under zero costs
            sx.cost, sx.costval, sx.cost_den = sx.row(leave)
            proof = FarkasProof(tuple(self.dual_entries([0] * len(self.costs))))
            if any(row not in available for row, _, _ in proof.entries):
                return None
            check_farkas(proof, available)
            return LpInfeasible(proof, sx.pivots - start)

        for row in removed:
            at = next((i for i, spec in enumerate(self.specs) if spec[0] == row), None)
            if at is None:  # a constant row, which has no tableau row
                continue
            slack = self.specs[at][3]
            r = next((r for r, b in enumerate(sx.basis) if b == slack and sx.alive[r]), None)
            if r is None:
                return None
            sx.remove_row(r)
            del self.specs[at]
        return self.optimal(rows, available, sx.pivots - start)


def _relevant_vars(rows: list[LinConstraint], objective: LinExpr) -> set[Var]:
    relevant: set[Var] = set(objective.vars())
    for row in rows:
        relevant.update(row.lhs.vars())
    return relevant


def lp_solve(sub: Subproblem, objective: LinExpr, bounds: Bounds, prev: LpOptimal | None = None) -> LpOutcome:
    """Solve the rational relaxation of the subproblem inside its box.

    ``prev`` is the optimum of the same node's previous cut round. Its
    simplex is re-optimised in place and passes to the new optimum. The
    solve starts from scratch when ``prev``'s simplex has already moved on,
    or when the change is not one the dual simplex re-optimisation handles.
    """
    rows = assemble_rows(sub, bounds, objective)
    if prev is not None and prev.state is not None:
        out = prev.state.reoptimize(prev, rows, objective)
        if out is not None:
            return out
    return _solve_cold(rows, objective, bounds)


def _solve_cold(rows: list[LinConstraint], objective: LinExpr, bounds: Bounds) -> LpOutcome:
    """Two-phase primal simplex from the slack and artificial basis."""
    names = sorted(_relevant_vars(rows, objective))

    shifts: dict[Var, int] = {}
    for v in names:
        lo = bounds.lo(v)
        if lo is not None:
            shifts[v] = lo

    available = frozenset(rows)

    # constant rows decide themselves; v >= lo rows fold into the shift
    kept: list[LinConstraint] = []
    lo_row_of: dict[Var, LinConstraint] = {}
    for row in rows:
        if not row.lhs.terms:
            ok = (
                (row.rel is Relation.GE and 0 >= row.rhs)
                or (row.rel is Relation.LE and 0 <= row.rhs)
                or (row.rel is Relation.EQ and row.rhs == 0)
            )
            if ok:
                continue
            direction = "ge" if (row.rel is Relation.GE or (row.rel is Relation.EQ and row.rhs > 0)) else "le"
            proof = FarkasProof(((row, direction, Fraction(1)),))
            check_farkas(proof, available)
            return LpInfeasible(proof)
        terms = row.lhs.terms
        if (
            len(terms) == 1
            and terms[0][1] == 1
            and row.rel is Relation.GE
            and terms[0][0] in shifts
            and row.rhs == shifts[terms[0][0]]
            and terms[0][0] not in lo_row_of
        ):
            lo_row_of[terms[0][0]] = row
            continue
        kept.append(row)

    lp = _Relaxation(objective, names, shifts, lo_row_of)
    n_struct = len(lp.pos_col) + len(lp.neg_col)

    # one pass to plan slack and artificial columns
    specs = []
    for row in kept:
        coeffs: dict[Var, int] = dict(row.lhs.terms)
        rhs = row.rhs - sum(a * shifts.get(v, 0) for v, a in coeffs.items())
        sigma = 1
        sense = row.rel
        if sense is Relation.GE:
            coeffs = {v: -a for v, a in coeffs.items()}
            rhs = -rhs
            sigma = -1
            sense = Relation.LE
        slack_sign = 1 if sense is Relation.LE else 0
        if rhs < 0:
            coeffs = {v: -a for v, a in coeffs.items()}
            rhs = -rhs
            sigma = -sigma
            slack_sign = -slack_sign
        specs.append((row, coeffs, rhs, sigma, slack_sign))

    # structural columns, then slacks, then artificials
    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    next_col = n_struct
    for i, spec in enumerate(specs):
        if spec[4] != 0:
            slack_col[i] = next_col
            next_col += 1
    n_plain = next_col
    for i, spec in enumerate(specs):
        if spec[4] != 1:
            art_col[i] = next_col
            next_col += 1

    sx = lp.sx
    for i, (row, coeffs, rhs, sigma, slack_sign) in enumerate(specs):
        sparse = lp.structural(coeffs)
        if slack_sign != 0:
            sparse[slack_col[i]] = slack_sign
        if i in art_col:
            sparse[art_col[i]] = 1
        r = sx.add_row(sparse, rhs)
        ref = art_col[i] if i in art_col else slack_col[i]
        sx.basis[r] = ref
        lp.specs.append((row, sigma, ref, slack_col.get(i, -1)))

    lp.enterable = [j < n_plain for j in range(next_col)]

    # phase 1: minimize the artificial total
    phase1_costs = [0 if plain else 1 for plain in lp.enterable]
    sx.price(phase1_costs)
    status, _ = sx.run(lp.enterable)
    if status != "optimal":
        raise InvariantError("phase 1 of the simplex went unbounded")

    # the phase 1 optimum -costval / cost_den is positive
    if sx.costval < 0:
        proof = FarkasProof(tuple(lp.dual_entries(phase1_costs)))
        check_farkas(proof, available)
        return LpInfeasible(proof, sx.pivots)

    # drive leftover artificials out of the basis; dependent rows are retired
    for r, row in enumerate(sx.nums):
        if not sx.alive[r] or sx.basis[r] < n_plain:
            continue
        j = min((k for k in row if k < n_plain), default=-1)
        if j >= 0:
            sx.pivot(r, j)
        else:
            sx.alive[r] = False
            lp.retired = True

    # phase 2: the real objective over structural columns
    lp.costs = [0] * next_col
    for v, c in objective.terms:
        lp.costs[lp.pos_col[v]] += c
        if v in lp.neg_col:
            lp.costs[lp.neg_col[v]] -= c
    sx.price(lp.costs)
    status, enter = sx.run(lp.enterable)
    if status == "unbounded":
        return LpUnbounded(lp.point(), lp.ray(enter), sx.pivots)
    return lp.optimal(rows, available, sx.pivots)


def _solve_combinations(rows: list[dict[Var, int]], targets: list[Var]) -> list[tuple[list[int], int] | None]:
    """Find multipliers expressing the unit vector of each target over row vectors.

    One Gauss-Jordan elimination over the simplex's integer rows, pivoting in
    each column on the first remaining equation that has it, carries one
    right-hand column per target. The pivots depend only on the rows, so every
    target gets the multipliers an elimination of its own would give. Each
    target's entry is ``(nums, den)``, the multipliers ``nums[j] / den``, or
    None when its unit vector is outside the row space.
    """
    m = len(rows)
    vars_all = sorted({v for coeffs in rows for v in coeffs})
    n = len(vars_all)
    # one equation per variable; columns below m are the row multipliers,
    # column m + t is target t's right side
    at = {v: i for i, v in enumerate(vars_all)}
    eqs: list[Row] = [({}, 0, 1) for _ in vars_all]
    for j, coeffs in enumerate(rows):
        for v, a in coeffs.items():
            if a:
                eqs[at[v]][0][j] = a
    for t, v in enumerate(targets):
        if v in at:
            eqs[at[v]][0][m + t] = 1
    piv_of_col: list[int | None] = [None] * m
    r = 0
    for j in range(m):
        p = next((i for i in range(r, n) if j in eqs[i][0]), None)
        if p is None:
            continue
        eqs[r], eqs[p] = eqs[p], eqs[r]
        src = eqs[r] = _unit_row(eqs[r][0], eqs[r][1], j)
        for i in range(n):
            f = eqs[i][0].get(j)
            if f and i != r:
                eqs[i] = _eliminate(*eqs[i], f, src)
        piv_of_col[j] = r
        r += 1
        if r == n:
            break
    # consistency: equations left without a multiplier must carry zero right sides
    leftover = {k for nums, _, _ in eqs if all(k >= m for k in nums) for k in nums}
    out: list[tuple[list[int], int] | None] = []
    for t, target in enumerate(targets):
        key = m + t
        if target not in at or key in leftover:
            out.append(None)
            continue
        pivots = [(j, eqs[p]) for j, p in enumerate(piv_of_col) if p is not None and key in eqs[p][0]]
        den = math.lcm(*(row_den for _, (_, _, row_den) in pivots))
        sol = [0] * m
        for j, (nums, _, row_den) in pivots:
            sol[j] = nums[key] * (den // row_den)
        # verify, over the common denominator: guards against rank deficiencies
        # interacting with free columns
        total: dict[Var, int] = {}
        for k, coeffs in zip(sol, rows):
            if k:
                for v, a in coeffs.items():
                    total[v] = total.get(v, 0) + k * a
        if any(total.get(v, 0) != (den if v == target else 0) for v in vars_all):
            out.append(None)
        else:
            out.append((sol, den))
    return out


def derive_gomory_cuts(t: Tableau) -> list[tuple[LinConstraint, CGCut]]:
    """Rounding cuts for the fractional coordinates of an optimal vertex.

    Each cut is produced with the nonnegative-combination certificate that
    the kernel checks: take the multipliers expressing the fractional
    coordinate over the tight rows, keep the fractional parts on inequality
    rows, and round the aggregated right side up. Tightness, aggregation and
    violation are computed on ``int`` numerators over common denominators;
    ``Fraction`` multipliers are built only for a cut that is kept.
    """
    fractional = sorted(v for v, q in t.x_star.items() if q.denominator != 1)
    if not fractional:
        raise NoFractionalRow("optimum is integral")
    # the vertex as integers over one denominator
    scale = math.lcm(*(q.denominator for q in t.x_star.values()))
    point = {v: q.numerator * (scale // q.denominator) for v, q in t.x_star.items()}

    tight: list[tuple[dict[Var, int], int, LinConstraint, str]] = []
    for row in t.rows:
        if not row.lhs.terms:
            continue
        if sum(c * point.get(v, 0) for v, c in row.lhs.terms) != row.rhs * scale:
            continue
        if row.rel is Relation.LE:
            tight.append(({v: -c for v, c in row.lhs.terms}, -row.rhs, row, "le"))
        else:
            tight.append((dict(row.lhs.terms), row.rhs, row, "eq" if row.rel is Relation.EQ else "ge"))

    available = frozenset(t.rows)
    existing = set(available)
    out: list[tuple[LinConstraint, CGCut, int]] = []
    for lam in _solve_combinations([coeffs for coeffs, _, _, _ in tight], fractional):
        if lam is None:
            continue
        mults, den = lam
        agg: dict[Var, int] = {}
        rhs_total = 0
        used: list[tuple[LinConstraint, str, int]] = []
        for k, (coeffs, rhs, row, sense) in zip(mults, tight):
            # fractional part of k / den on inequality rows, over den
            use = k if sense == "eq" else k % den
            if use == 0:
                continue
            for name, c in coeffs.items():
                agg[name] = agg.get(name, 0) + use * c
            rhs_total += use * rhs
            used.append((row, sense, use))
        if any(c % den for c in agg.values()):
            continue
        coeff_ints = {name: c // den for name, c in agg.items() if c}
        g = math.gcd(*coeff_ints.values()) if coeff_ints else 1
        if coeff_ints:
            lhs = LinExpr.of({name: c // g for name, c in coeff_ints.items()})
        elif rhs_total <= 0:
            continue
        else:
            lhs = LinExpr.zero()
        cut = LinConstraint(lhs, Relation.GE, -(-rhs_total // (den * g)))
        if cut in existing:
            continue
        violation = cut.rhs * scale - sum(c * point.get(name, 0) for name, c in cut.lhs.terms)
        if violation <= 0:
            continue
        entries: list[ComboEntry] = []
        for row, sense, use in used:
            if sense == "eq":
                sense = "ge" if use > 0 else "le"
            entries.append((row, sense, Fraction(abs(use), den * g)))
        cert = CGCut(tuple(entries))
        check_cg(cert, available, cut)
        out.append((cut, cert, violation))
        existing.add(cut)
    out.sort(key=lambda item: (-item[2], item[0].render()))
    return [(cut, cert) for cut, cert, _ in out]


@dataclass
class PropagationResult:
    """Fixed-point interval propagation outcome.

    ``derived`` lists newly certified single-variable bound rows in derivation
    order; once those rows are admitted, ``fixes`` and ``farkas`` check against
    the augmented row set. ``farkas`` set means the subproblem is empty.
    """

    bounds: Bounds
    fixes: list[tuple[SimpleEquality, BoundFix]]
    derived: list[tuple[LinConstraint, CGCut]]
    farkas: FarkasProof | None = None

    @property
    def infeasible(self) -> bool:
        return self.farkas is not None


def propagate_bounds(sub: Subproblem, bounds: Bounds, max_rounds: int = 64) -> PropagationResult:
    """Tighten per-variable intervals; detect fixed variables, differences, emptiness."""
    base_rows: list[LinConstraint] = []
    for c in sub.cons:
        base_rows.append(normalize(c))
    for d in sub.eqs:
        base_rows.append(d.as_constraint())
    base_rows.sort(key=lambda r: r.render())

    relevant: set[Var] = set()
    for row in base_rows:
        relevant.update(row.lhs.vars())

    work: dict[Var, list[int | None]] = {v: [bounds.lo(v), bounds.hi(v)] for v in relevant}
    available: set[LinConstraint] = set(base_rows)
    for v in relevant:
        lo, hi = bounds.interval(v)
        if lo is not None:
            available.add(bounds.row_lo(v))
        if hi is not None:
            available.add(bounds.row_hi(v))

    derived: list[tuple[LinConstraint, CGCut]] = []

    def lo_row(v: Var) -> LinConstraint:
        return LinConstraint(LinExpr.var(v), Relation.GE, work[v][0])

    def hi_row(v: Var) -> LinConstraint:
        return LinConstraint(LinExpr.var(v), Relation.LE, work[v][1])

    def record(cut: LinConstraint, coeffs: dict[Var, int], row: LinConstraint, direction: str, v: Var) -> None:
        """Admit the bound on ``v`` that ``row`` gives from the other variables' current bounds."""
        if cut in available:
            return
        scale = abs(coeffs[v])
        entries: list[ComboEntry] = [(row, direction, Fraction(1, scale))]
        for u, a_u in coeffs.items():
            if u == v:
                continue
            if a_u > 0:
                entries.append((hi_row(u), "le", Fraction(a_u, scale)))
            else:
                entries.append((lo_row(u), "ge", Fraction(-a_u, scale)))
        cert = CGCut(tuple(entries))
        check_cg(cert, available, cut)
        derived.append((cut, cert))
        available.add(cut)

    oriented: list[tuple[dict[Var, int], int, LinConstraint, str]] = []
    for row in base_rows:
        if not row.lhs.terms:
            if (row.rel is Relation.GE and row.rhs > 0) or (row.rel is Relation.LE and row.rhs < 0) or (
                row.rel is Relation.EQ and row.rhs != 0
            ):
                direction = "le" if (row.rel is Relation.LE or (row.rel is Relation.EQ and row.rhs < 0)) else "ge"
                proof = FarkasProof(((row, direction, Fraction(1)),))
                check_farkas(proof, available)
                return PropagationResult(bounds, [], derived, proof)
            continue
        if row.rel in (Relation.GE, Relation.EQ):
            oriented.append((dict(row.lhs.terms), row.rhs, row, "ge"))
        if row.rel in (Relation.LE, Relation.EQ):
            oriented.append(({v: -a for v, a in row.lhs.terms}, -row.rhs, row, "le"))

    def result_bounds() -> Bounds:
        table = {v: (iv[0], iv[1]) for v, iv in work.items() if (iv[0], iv[1]) != (None, None)}
        merged = dict(bounds.items())
        merged.update(table)
        return Bounds(merged)

    for _ in range(max_rounds):
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
                            record(LinConstraint(LinExpr.var(v), Relation.GE, cand), coeffs, row, direction, v)
                            improved = True
                    else:
                        cand = limit // a_v
                        if work[v][1] is None or cand < work[v][1]:
                            work[v][1] = cand
                            record(LinConstraint(LinExpr.var(v), Relation.LE, cand), coeffs, row, direction, v)
                            improved = True
                    lo, hi = work[v]
                    if lo is not None and hi is not None and lo > hi:
                        proof = FarkasProof(((lo_row(v), "ge", Fraction(1)), (hi_row(v), "le", Fraction(1))))
                        check_farkas(proof, available)
                        # the tightened box is empty; report the original one
                        return PropagationResult(bounds, [], derived, proof)
        if not improved:
            break

    fixes: list[tuple[SimpleEquality, BoundFix]] = []
    for v in sorted(relevant):
        lo, hi = work[v]
        if lo is not None and lo == hi:
            d = SimpleEquality.fix(v, lo)
            if d in sub.eqs:
                continue
            fixes.append((d, BoundFix(identity_cut(lo_row(v), "ge"), identity_cut(hi_row(v), "le"))))

    # opposing difference bounds force x - y = c
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
        x, y = pair
        d = SimpleEquality.diff(x, y, int(lo_val))
        if d in sub.eqs or d.is_fix:
            continue
        fixes.append(
            (
                d,
                BoundFix(
                    CGCut(((lo_src, lo_dir, lo_scale),)),
                    CGCut(((hi_src, hi_dir, hi_scale),)),
                ),
            )
        )

    return PropagationResult(result_bounds(), fixes, derived, None)
