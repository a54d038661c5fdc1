"""Exact rational relaxation: bounded simplex, dual certificates, rounding cuts, propagation.

Bounds live on columns, not rows (Dutertre and de Moura, "A Fast
Linear-Arithmetic Solver for DPLL(T)", CAV 2006). A row whose left side is
one variable with coefficient +1 or -1 bounds that variable's column; any
other row bounds its slack column ``s = lhs``, shared by every row with that
left side. A column keeps only its tightest bounds and the rows certifying
them. A slack row that the variables' bounds imply over its whole activity
range, such as ``g - p >= 0`` once ``g >= 1`` and ``p <= 1``, gets no column
and no tableau row (activity-based redundancy detection, as in Achterberg,
Bixby, Gu, Rothberg and Weninger, "Presolve reductions in mixed integer
programming", 2020).

A solve first moves every basic column into its bounds (Dutertre and de
Moura's check), then runs a bounded primal simplex in which the entering
column may flip to its other bound without a pivot, so there are no
artificial columns and no phase-1 objective. Both use Bland's rule over one
fixed column order, slack columns before variables and the newest slack
first, so they terminate on every input. A node's cut round only adds
rows, so it keeps the previous optimum's tableau, whose bounds then only
tighten: a cut tightens a bound, is implied, or brings a new slack row
rewritten in the current basis, and the round's rows are merged into the
previous ones. Any other change, a forgotten row among them, is solved from
scratch.

The tableau is sparse and integer-preserving: each row stores its nonzero
entries as ``int`` numerators over one positive denominator and is divided by
the gcd of its numbers after every update (Edmonds' fraction-free
elimination); values become ``Fraction`` only when they leave the tableau.
The elimination that recovers Gomory multipliers uses the same rows, once for
all fractional targets.

Infeasibility yields Farkas multipliers on a stuck row's identity and the
bounds that stop its columns; optimality yields dual multipliers, the reduced
costs of the nonbasic columns at their bounds; unboundedness yields a feasible
point and an improving ray. Both stay within the variables' bounds, so a row
left out of the tableau holds at the point and along the ray. Cuts and
propagated bounds carry rounding multipliers. Nothing here checks a
certificate: this module is part of the untrusted engine, and the kernel
checks each one when the step citing it is applied.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .certificates import (
    BoundFix,
    CGCut,
    ComboEntry,
    FarkasProof,
)
from .model import (
    Bounds,
    ImtError,
    LinConstraint,
    LinExpr,
    Relation,
    SimpleEquality,
    Subproblem,
    Var,
    normalize,
)


class NoFractionalRow(ImtError):
    """Cut derivation was asked for on an integral optimum."""


@dataclass(frozen=True)
class LpOptimal:
    """An optimal vertex over ``rows``, the relaxation's rows.

    ``pivots`` counts this solve's simplex pivots, and ``tableau_rows`` the
    tableau rows it solved over, as in every outcome.
    """

    x_star: dict[Var, Fraction]
    value: Fraction
    dual: tuple[ComboEntry, ...]
    rows: tuple[LinConstraint, ...]
    pivots: int = 0
    tableau_rows: int = 0
    # the live tableau, which the node's next cut round re-optimises in place
    state: _Simplex | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class LpInfeasible:
    farkas: FarkasProof
    pivots: int = 0
    tableau_rows: int = 0


@dataclass(frozen=True)
class LpUnbounded:
    point: dict[Var, Fraction]
    ray: dict[Var, Fraction]
    pivots: int = 0
    tableau_rows: int = 0


LpOutcome = LpOptimal | LpInfeasible | LpUnbounded


def _order(row: LinConstraint) -> tuple:  # the relaxation's fixed row order
    return row.lhs.terms, row.rel.value, row.rhs


def _rows_and_vars(sub: Subproblem, bounds: Bounds, objective: LinExpr) -> tuple[list[LinConstraint], set[Var]]:
    """The relaxation's rows in a fixed order, and the variables they or the objective mention."""
    rows: set[LinConstraint] = set()
    relevant: set[Var] = set(objective.vars())
    for c in sub.cons:
        rows.add(normalize(c))
        relevant.update(c.lhs.vars())
    for v in relevant:
        lo, hi = bounds.interval(v)
        if lo is not None:
            rows.add(bounds.row_lo(v))
        if hi is not None:
            rows.add(bounds.row_hi(v))
    return sorted(rows, key=_order), relevant


def assemble_rows(sub: Subproblem, bounds: Bounds, objective: LinExpr = LinExpr()) -> list[LinConstraint]:
    """All rows visible to the relaxation: C and the finite bound ends."""
    return _rows_and_vars(sub, bounds, objective)[0]


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


_PIVOT_LIMIT = 200000
# the most rounds of interval propagation over all rows in one call
_PROPAGATION_ROUNDS = 64


class _Simplex:
    """Bounded exact simplex over sparse integer rows, with Bland's rule in one fixed column order.

    Columns ``0 .. n-1`` are the variables in sorted order; each further
    column is the slack ``s = lhs`` of every row with that left side. Row
    ``r`` is the identity ``sum_j nums[r][j] * x_j = 0``, with the entry
    ``den[r]`` on its basic column ``basis[r]``. Every nonbasic column sits
    at the integer ``at[j]`` (0 when missing), and ``rhs[r] / den[r]`` is the
    basic column's value there. The numerators, right side and denominator
    of a row share no factor after a pivot. The reduced-cost row is stored
    the same way in ``cost``, ``costval`` and ``cost_den``.

    A row bounds one column: a variable when its left side is that variable
    with coefficient +1 or -1, else its slack. Column ``j`` keeps only its
    tightest bounds ``lo[j]``/``hi[j]``, and ``lo_src[j]``/``hi_src[j]``
    name the row and direction certifying each. Variable bounds are admitted
    first, and a slack row they imply is not admitted at all; bounds only
    tighten, so it stays implied. Bland's order ``rank`` puts every slack
    before every variable, the newest slack first.
    """

    def __init__(self, objective: LinExpr, relevant: set[Var]):
        self.objective = objective
        self.names = sorted(relevant)
        self.col = {v: j for j, v in enumerate(self.names)}
        self.nums: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.at: dict[int, int] = {}
        self.rank = list(range(len(self.names)))
        self.lo: list[int | None] = [None] * len(self.names)
        self.hi: list[int | None] = [None] * len(self.names)
        self.lo_src: list[tuple[LinConstraint, str] | None] = [None] * len(self.names)
        self.hi_src: list[tuple[LinConstraint, str] | None] = [None] * len(self.names)
        self.slack_of: dict[LinExpr, int] = {}
        self.cost = {self.col[v]: c for v, c in objective.terms}
        self.costval = 0
        self.cost_den = 1
        self.pivots = 0
        # the latest optimum's rows, which the next re-optimisation starts from, and their source
        self.rows: tuple[LinConstraint, ...] = ()
        self.available: frozenset[LinConstraint] = frozenset()
        self.source: tuple[frozenset[LinConstraint], Bounds] | None = None

    def add_row(self, coeffs: dict[int, int], rhs: int, den: int = 1) -> int:
        self.nums.append({j: a for j, a in coeffs.items() if a})
        self.rhs.append(rhs)
        self.den.append(den)
        self.basis.append(-1)
        return len(self.nums) - 1

    def row(self, r: int) -> Row:
        return self.nums[r], self.rhs[r], self.den[r]

    def pivot(self, r: int, j: int) -> None:
        """Column ``j`` enters at row ``r``; the leaving column becomes nonbasic at its ``at`` value."""
        self.pivots += 1
        vj = self.at.pop(j, 0)
        nums = self.nums[r]
        b = self.basis[r]
        # measure j from 0 as a basic column, and the leaving column from its new value
        src = _unit_row(nums, self.rhs[r] + nums[j] * vj - nums.get(b, 0) * self.at.get(b, 0), j)
        self.nums[r], self.rhs[r], self.den[r] = src
        for i, other in enumerate(self.nums):
            f = other.get(j)
            if f and i != r:
                self.nums[i], self.rhs[i], self.den[i] = _eliminate(other, self.rhs[i] + f * vj, self.den[i], f, src)
        f = self.cost.get(j)
        if f:
            self.cost, self.costval, self.cost_den = _eliminate(self.cost, self.costval + f * vj, self.cost_den, f, src)
        self.basis[r] = j

    def shift(self, j: int, delta: int) -> None:
        """Move nonbasic column ``j`` by ``delta``; the basic values follow."""
        self.at[j] = self.at.get(j, 0) + delta
        for i, other in enumerate(self.nums):
            f = other.get(j)
            if f:
                self.rhs[i] -= f * delta
        self.costval -= self.cost.get(j, 0) * delta

    def admit(self, rows: list[LinConstraint]) -> None:
        """Add rows with variables: variable bounds first, then each other row unless they imply it."""
        rest = []
        for row in rows:
            terms = row.lhs.terms
            if len(terms) == 1 and terms[0][1] in (1, -1):
                self._bound(row, self.col[terms[0][0]], terms[0][1])
            else:
                rest.append(row)
        basic_row = {b: r for r, b in enumerate(self.basis)}
        for row in rest:
            if not self._implied(row):
                self._bound(row, self._slack_column(row.lhs, basic_row), 1)

    def _implied(self, row: LinConstraint) -> bool:
        """Whether the row holds over the whole box the variable columns' bounds span."""
        low: int | None = 0
        high: int | None = 0
        lo, hi, col = self.lo, self.hi, self.col
        for v, a in row.lhs.terms:
            j = col[v]
            least, most = (lo[j], hi[j]) if a > 0 else (hi[j], lo[j])
            low = None if low is None or least is None else low + a * least
            high = None if high is None or most is None else high + a * most
        if row.rel is not Relation.LE and (low is None or low < row.rhs):
            return False
        return row.rel is Relation.GE or (high is not None and high <= row.rhs)

    def _bound(self, row: LinConstraint, j: int, c: int) -> None:
        """Tighten column ``j`` by a row whose left side is ``c`` (+1 or -1) times it.

        A bound moves only when strictly tighter, so the first of equally
        tight rows certifies it.
        """
        value = c * row.rhs
        # taken as ge the row reads c * column >= rhs, a lower bound when c is +1
        for direction, upper, other in (("ge", c < 0, Relation.LE), ("le", c > 0, Relation.GE)):
            if row.rel is other:
                continue
            if upper:
                if self.hi[j] is None or value < self.hi[j]:
                    self.hi[j], self.hi_src[j] = value, (row, direction)
            elif self.lo[j] is None or value > self.lo[j]:
                self.lo[j], self.lo_src[j] = value, (row, direction)

    def _slack_column(self, lhs: LinExpr, basic_row: dict[int, int]) -> int:
        """The slack column ``s = lhs``; a new one is basic, its row rewritten over the nonbasic columns."""
        s = self.slack_of.get(lhs, -1)
        if s >= 0:
            return s
        s = self.slack_of[lhs] = len(self.lo)
        self.rank.append(len(self.names) - 1 - s)
        for table in (self.lo, self.hi, self.lo_src, self.hi_src):
            table.append(None)
        nums = {s: 1}
        rhs = 0
        for v, a in lhs.terms:
            nums[self.col[v]] = -a
            rhs += a * self.at.get(self.col[v], 0)
        row: Row = (nums, rhs, 1)
        for j in [j for j in nums if j in basic_row]:
            row = _eliminate(*row, row[0][j], self.row(basic_row[j]))
        self.basis[self.add_row(*row)] = s
        return s

    def place(self) -> None:
        """Put every nonbasic column with a bound on one of its bounds."""
        basic = set(self.basis)
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            if j in basic or (lo is None and hi is None):
                continue
            v = self.at.get(j, 0)
            target = hi if hi is not None and (lo is None or v >= hi) else lo
            if target != v:
                self.shift(j, target - v)

    def repair(self) -> tuple[int, bool] | None:
        """Dutertre and de Moura's check: move each basic column into its bounds.

        The violated basic column first in Bland's order leaves at its bound.
        Returns None once every basic column is within its bounds, else a row
        and whether its basic column must rise, when no column of that row
        can move to help.
        """
        rank, lo, hi, at = self.rank, self.lo, self.hi, self.at
        start = self.pivots
        while self.pivots - start < _PIVOT_LIMIT:
            leave, up = -1, False
            for r, b in enumerate(self.basis):
                if leave >= 0 and rank[b] > rank[self.basis[leave]]:
                    continue
                if lo[b] is not None and self.rhs[r] < lo[b] * self.den[r]:
                    leave, up = r, True
                elif hi[b] is not None and self.rhs[r] > hi[b] * self.den[r]:
                    leave, up = r, False
            if leave < 0:
                return None
            b = self.basis[leave]
            # the basic column rises with x_k when its entry in column k is negative
            enter = -1
            for k, a in self.nums[leave].items():
                if k == b or (enter >= 0 and rank[k] > rank[enter]):
                    continue
                if (a < 0) == up:
                    if hi[k] is None or at.get(k, 0) < hi[k]:
                        enter = k
                elif lo[k] is None or at.get(k, 0) > lo[k]:
                    enter = k
            if enter < 0:
                return leave, up
            at[b] = lo[b] if up else hi[b]
            self.pivot(leave, enter)
        raise ImtError("pivot limit exceeded")

    def optimise(self) -> tuple[int, bool] | None:
        """Bland's bounded primal simplex from a feasible basis.

        An entering column that reaches its own other bound first flips
        there, which is not a pivot. Returns None at an optimum, else the
        entering column and its direction along an improving ray.
        """
        rank, lo, hi, at = self.rank, self.lo, self.hi, self.at
        start = self.pivots
        while self.pivots - start < _PIVOT_LIMIT:
            enter, up = -1, False
            for k, c in self.cost.items():
                if enter >= 0 and rank[k] > rank[enter]:
                    continue
                if c < 0:
                    if hi[k] is None or at.get(k, 0) < hi[k]:
                        enter, up = k, True
                elif lo[k] is None or at.get(k, 0) > lo[k]:
                    enter, up = k, False
            if enter < 0:
                return None
            # the step p / q each basic column allows before it meets a bound,
            # compared by cross-multiplying; ties go to the column first in order
            leave = -1
            best_p, best_q, bound = 0, 1, 0
            for r, row in enumerate(self.nums):
                a = row.get(enter)
                if a is None:
                    continue
                b = self.basis[r]
                if (a > 0) == up:
                    if lo[b] is None:
                        continue
                    end, p = lo[b], self.rhs[r] - lo[b] * self.den[r]
                else:
                    if hi[b] is None:
                        continue
                    end, p = hi[b], hi[b] * self.den[r] - self.rhs[r]
                q = abs(a)
                if leave < 0 or p * best_q < best_p * q or (
                    p * best_q == best_p * q and rank[b] < rank[self.basis[leave]]
                ):
                    leave, best_p, best_q, bound = r, p, q, end
            if lo[enter] is not None and hi[enter] is not None:
                span = hi[enter] - lo[enter]
                if leave < 0 or span * best_q <= best_p:
                    self.shift(enter, span if up else -span)
                    continue
            if leave < 0:
                return enter, up
            at[self.basis[leave]] = bound
            self.pivot(leave, enter)
        raise ImtError("pivot limit exceeded")

    def solve(self, rows: list[LinConstraint], available: frozenset[LinConstraint]) -> LpOutcome:
        """Check the bounds, then optimise; ``rows`` and their set ``available`` are kept for the next re-solve."""
        start = self.pivots
        size = len(self.nums)
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            if lo is not None and hi is not None and lo > hi:
                proof = FarkasProof(((*self.lo_src[j], Fraction(1)), (*self.hi_src[j], Fraction(1))))
                return LpInfeasible(proof, tableau_rows=size)
        self.place()
        stuck = self.repair()
        if stuck is not None:
            r, up = stuck
            # the row's identity, each column taken at the bound that stops it
            entries: list[ComboEntry] = []
            for k, a in self.nums[r].items():
                row, direction = self.hi_src[k] if (a < 0) == up else self.lo_src[k]
                entries.append((row, direction, Fraction(abs(a), self.den[r])))
            return LpInfeasible(FarkasProof(tuple(entries)), self.pivots - start, size)
        ray = self.optimise()
        if ray is not None:
            return LpUnbounded(self.point(), self.ray(*ray), self.pivots - start, size)
        x_star = self.point()
        value = Fraction(0)
        for v, c in self.objective.terms:
            value += c * x_star[v]
        # the objective is sum_k cost_k * x_k over nonbasic columns, each at the bound it presses
        dual: list[ComboEntry] = []
        for k, c in self.cost.items():
            row, direction = self.lo_src[k] if c > 0 else self.hi_src[k]
            dual.append((row, direction, Fraction(abs(c), self.cost_den)))
        self.rows, self.available = tuple(rows), available
        return LpOptimal(x_star, value, tuple(dual), self.rows, self.pivots - start, size, self)

    def point(self) -> dict[Var, Fraction]:
        basic_row = {b: r for r, b in enumerate(self.basis)}
        point = {}
        for j, v in enumerate(self.names):
            r = basic_row.get(j)
            point[v] = Fraction(self.at.get(j, 0)) if r is None else Fraction(self.rhs[r], self.den[r])
        return point

    def ray(self, enter: int, up: bool) -> dict[Var, Fraction]:
        d = 1 if up else -1
        dz = {enter: Fraction(d)}
        for r, row in enumerate(self.nums):
            if enter in row:
                dz[self.basis[r]] = Fraction(-d * row[enter], self.den[r])
        return {v: dz[j] for j, v in enumerate(self.names) if j in dz}

    def extend(self, prev: LpOptimal, sub: Subproblem, objective: LinExpr, bounds: Bounds) -> LpOutcome | None:
        """Re-solve in place after a cut round that only added rows to ``prev``, this tableau's latest optimum.

        The added rows are merged into ``prev``'s rows. Each one tightens a
        column's bounds, is implied, or brings a new slack column with its row
        rewritten in the current basis; the check restores feasibility and the
        primal simplex optimality. Returns None, for a solve from scratch,
        unless ``sub`` only gained rows with variables, all of them this
        tableau's, and has the same box and objective.
        """
        if self.source is None or prev.rows is not self.rows or objective != self.objective:
            return None
        cons, box = self.source
        if box is not bounds or not cons <= sub.cons:
            return None
        added = sorted({normalize(c) for c in sub.cons - cons}.difference(self.available), key=_order)
        if not all(row.lhs.terms and all(v in self.col for v, _ in row.lhs.terms) for row in added):
            return None
        rows = list(prev.rows)
        for row in added:
            bisect.insort(rows, row, key=_order)
        self.rows, self.source = (), None  # from here the tableau no longer matches prev
        self.admit(added)
        return self.solve(rows, self.available.union(added))


def _constant_row_proof(row: LinConstraint) -> FarkasProof | None:
    """The one-entry Farkas proof that a row without variables fails, or None when it holds."""
    if row.rhs > 0 and row.rel is not Relation.LE:
        return FarkasProof(((row, "ge", Fraction(1)),))
    if row.rhs < 0 and row.rel is not Relation.GE:
        return FarkasProof(((row, "le", Fraction(1)),))
    return None


def lp_solve(sub: Subproblem, objective: LinExpr, bounds: Bounds, prev: LpOptimal | None = None) -> LpOutcome:
    """Solve the rational relaxation of the subproblem inside its box.

    ``prev``, the optimum of the same node's previous cut round, passes its
    tableau on to the new optimum when the round only added rows
    (``_Simplex.extend``); otherwise the solve starts from scratch.
    """
    sx = None if prev is None else prev.state
    out = None if sx is None else sx.extend(prev, sub, objective, bounds)
    if out is None:
        rows, relevant = _rows_and_vars(sub, bounds, objective)
        for row in rows:
            proof = None if row.lhs.terms else _constant_row_proof(row)
            if proof is not None:
                return LpInfeasible(proof)
        sx = _Simplex(objective, relevant)
        sx.admit([row for row in rows if row.lhs.terms])
        out = sx.solve(rows, frozenset(rows))
    if isinstance(out, LpOptimal):
        sx.source = (sub.cons, bounds)
    return out


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


def derive_gomory_cuts(t: LpOptimal) -> list[tuple[LinConstraint, CGCut]]:
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

    existing = set(t.rows)
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
        out.append((cut, CGCut(tuple(entries)), violation))
        existing.add(cut)
    out.sort(key=lambda item: (-item[2], item[0].render()))
    return [(cut, cert) for cut, cert, _ in out]


@dataclass
class PropagationResult:
    """Fixed-point interval propagation outcome.

    ``derived`` lists newly certified single-variable bound rows in derivation
    order; once those rows are admitted, ``fixes`` and ``farkas`` check against
    the augmented row set. ``fixes`` holds pinned differences ``x - y = c``
    whose rows C lacks. ``farkas`` set means the subproblem is empty.
    """

    fixes: list[tuple[SimpleEquality, BoundFix]]
    derived: list[tuple[LinConstraint, CGCut]]
    farkas: FarkasProof | None = None

    @property
    def infeasible(self) -> bool:
        return self.farkas is not None


def propagate_bounds(sub: Subproblem, bounds: Bounds) -> PropagationResult:
    """Tighten per-variable intervals; detect pinned differences and emptiness."""
    base_rows = sorted(map(normalize, sub.cons), key=LinConstraint.render)

    relevant: set[Var] = set()
    for row in base_rows:
        relevant.update(row.lhs.vars())

    work: dict[Var, list[int | None]] = {v: [bounds.lo(v), bounds.hi(v)] for v in relevant}
    # a derived bound is strictly tighter than the box end it started from, so never a box row
    available: set[LinConstraint] = set(base_rows)

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
        derived.append((cut, CGCut(tuple(entries))))
        available.add(cut)

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
                        return PropagationResult([], derived, proof)
        if not improved:
            break

    # Opposing difference bounds fix x - y = c. A pinned variable gets no fix:
    # v >= c and v <= c are rows already (its interval starts at box rows and
    # moves only through record, which finds the row among the base rows or
    # derives it, learned first), and v = c would change no later step: same
    # LP column bounds and pivots, Gomory multiplier 0 (the tight v <= c sorts
    # first), no new propagated row and no literal's true arm.
    fixes: list[tuple[SimpleEquality, BoundFix]] = []
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
        if d.as_constraint() in sub.cons:
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

    return PropagationResult(fixes, derived)
