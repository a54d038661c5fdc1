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
first, so they terminate on every input. A new tableau's variable columns
take their bounds from the box, and the rows of C are admitted to it. A
node's cut round re-solves the previous round's optimum in place: its rows
are that optimum's rows plus new rows over the tableau's variables, under
the same objective and box, and only the new rows are admitted. The bounds
then only tighten: a new row tightens a bound, is implied, or brings a new
slack row rewritten in the current basis.

The tableau is sparse and integer-preserving: each row stores its nonzero
entries as ``int`` numerators over one positive denominator and is divided by
the gcd of its numbers after every update (Edmonds' fraction-free
elimination); values become ``Fraction`` only when they leave the tableau.
A Gomory cut's multipliers are read off the optimal tableau's row of its
fractional variable, on the rows that certify the bounds its nonbasic
columns sit at: the rows the dual and Farkas proofs cite too. Bound
propagation takes each row's largest activity once per round and derives
every variable's bound from it.

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
    Subproblem,
    Var,
    diff_equality,
)


class NoFractionalRow(ImtError):
    """Cut derivation was asked for on an integral optimum."""


@dataclass(frozen=True)
class LpOptimal:
    """An optimal vertex of the relaxation, with dual multipliers on the rows that bound its nonbasic columns.

    ``pivots`` counts this solve's simplex pivots, and ``tableau_rows`` the
    tableau rows it solved over, as in every outcome.
    """

    x_star: dict[Var, Fraction]
    value: Fraction
    dual: tuple[ComboEntry, ...]
    pivots: int = 0
    tableau_rows: int = 0
    # the live tableau: at this optimum, which derive_gomory_cuts reads, until
    # the node's next cut round re-optimises it in place
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


def assemble_rows(sub: Subproblem, bounds: Bounds, objective: LinExpr = LinExpr()) -> list[LinConstraint]:
    """All rows visible to the relaxation: C and the finite box ends of the variables it or the objective mention."""
    return sorted(sub.cons.union(bounds.rows([*objective.vars(), *(v for c in sub.cons for v in c.lhs.vars())])), key=_order)


Row = tuple[dict[int, int], int, int]
# a row's left side as (variable, coefficient) pairs, in the order of its terms
Terms = tuple[tuple[Var, int], ...]


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
    name the row and direction certifying each. The box seeds the variable
    columns' bounds, ``cons`` holds the rows admitted so far, and of each
    admitted batch the variable bounds go first; a slack row they imply is
    not admitted at all, and since bounds only tighten it stays implied.
    Bland's order ``rank`` puts every slack before every variable, the
    newest slack first.
    """

    def __init__(self, objective: LinExpr, bounds: Bounds, variables: set[Var]):
        self.objective = objective
        self.names = sorted(variables)
        self.col = {v: j for j, v in enumerate(self.names)}
        self.cons: frozenset[LinConstraint] = frozenset()
        self.nums: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.at: dict[int, int] = {}
        self.rank = list(range(len(self.names)))
        self.lo: list[int | None] = []
        self.hi: list[int | None] = []
        self.lo_src: list[tuple[LinConstraint, str] | None] = []
        self.hi_src: list[tuple[LinConstraint, str] | None] = []
        for v in self.names:
            lo, hi = bounds.interval(v)
            self.lo.append(lo)
            self.hi.append(hi)
            self.lo_src.append(None if lo is None else (bounds.row_lo(v), "ge"))
            self.hi_src.append(None if hi is None else (bounds.row_hi(v), "le"))
        self.slack_of: dict[LinExpr, int] = {}
        self.cost = {self.col[v]: c for v, c in objective.terms}
        self.costval = 0
        self.cost_den = 1
        self.pivots = 0

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

    def solve(self) -> LpOutcome:
        """Check the bounds, then optimise."""
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
        return LpOptimal(x_star, value, tuple(dual), self.pivots - start, size, self)

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


def _constant_row_proof(row: LinConstraint) -> FarkasProof | None:
    """The one-entry Farkas proof that a row without variables fails, or None when it holds."""
    if row.rhs > 0 and row.rel is not Relation.LE:
        return FarkasProof(((row, "ge", Fraction(1)),))
    if row.rhs < 0 and row.rel is not Relation.GE:
        return FarkasProof(((row, "le", Fraction(1)),))
    return None


def lp_solve(sub: Subproblem, objective: LinExpr, bounds: Bounds, prev: LpOptimal | None = None) -> LpOutcome:
    """Solve the rational relaxation of the subproblem inside its box.

    Without ``prev`` the box seeds a new tableau's columns and C is admitted.
    ``prev`` is the optimum of the same node's previous cut round, whose
    tableau is re-solved in place: ``sub`` holds ``prev``'s rows plus new rows
    over the tableau's variables, under the same objective and box, and only
    the new rows are admitted. The kernel checks every certificate, so a
    ``prev`` outside that contract can fail the solve but not change a verdict.
    """
    if prev is None:
        sx = _Simplex(objective, bounds, set(objective.vars()).union(*(row.lhs.vars() for row in sub.cons)))
    else:
        sx = prev.state
    rows = sorted(sub.cons - sx.cons, key=_order)
    for row in rows:
        proof = None if row.lhs.terms else _constant_row_proof(row)
        if proof is not None:
            return LpInfeasible(proof)
    sx.cons = sub.cons
    sx.admit([row for row in rows if row.lhs.terms])
    return sx.solve()


def derive_gomory_cuts(t: LpOptimal) -> list[tuple[LinConstraint, CGCut]]:
    """Rounding cuts for the fractional coordinates of an optimal vertex, read off its tableau.

    A fractional variable ``x_v`` is basic, since every nonbasic column sits at
    an integer, and its row of ``t.state`` reads ``den * x_v = -sum_k a_k * x_k``
    over the nonbasic columns (Gomory, "Outline of an algorithm for integer
    solutions to linear programs", 1958). Each of those sits at a bound that
    ``lo_src[k]`` or ``hi_src[k]`` certifies; taken in its own direction, the
    source gets multiplier ``-a_k / den`` on a lower bound and ``a_k / den`` on
    an upper one, and these combine to ``x_v``. The certificate keeps each
    multiplier's fractional part, entries in the relaxation's row order, and
    the aggregate's right side is rounded up. A row that meets a nonbasic
    column at no bound gives no cut. ``t.state`` stays at ``t`` only until the
    next cut round re-optimises it, so the cuts must be derived before that.
    Aggregation and violation are computed on ``int`` numerators over common
    denominators; ``Fraction`` multipliers are built only for the certificate.
    """
    fractional = sorted(v for v, q in t.x_star.items() if q.denominator != 1)
    if not fractional:
        raise NoFractionalRow("optimum is integral")
    sx = t.state
    # the vertex as integers over one denominator
    scale = math.lcm(*(q.denominator for q in t.x_star.values()))
    point = {v: q.numerator * (scale // q.denominator) for v, q in t.x_star.items()}
    basic_row = {b: r for r, b in enumerate(sx.basis)}
    # two targets may give the same cut, which keeps the first one's certificate
    out: dict[LinConstraint, tuple[CGCut, int]] = {}
    for v in fractional:
        j = sx.col[v]
        nums, _, den = sx.row(basic_row[j])
        used: list[tuple[LinConstraint, str, int]] = []
        for k, a in nums.items():
            if k == j:
                continue
            if sx.at.get(k, 0) == sx.lo[k]:
                src, m = sx.lo_src[k], -a
            else:
                src, m = sx.hi_src[k], a
            if src is None:
                break
            use = m % den
            if use:
                used.append((*src, use))
        else:
            agg: dict[Var, int] = {}
            rhs_total = 0
            for row, direction, use in used:
                signed = use if direction == "ge" else -use
                for name, c in row.lhs.terms:
                    agg[name] = agg.get(name, 0) + signed * c
                rhs_total += signed * row.rhs
            # The aggregate is x_v minus integer multiples of rows, so its
            # coefficients are multiples of den, and at the vertex it is x_v
            # plus an integer: the rounded cut is never empty and always violated.
            coeffs = {name: c // den for name, c in agg.items() if c}
            g = math.gcd(*coeffs.values())
            lhs = LinExpr.of({name: c // g for name, c in coeffs.items()})
            cut = LinConstraint(lhs, Relation.GE, -(-rhs_total // (den * g)))
            violation = cut.rhs * scale - sum(c * point[name] for name, c in cut.lhs.terms)
            used.sort(key=lambda entry: _order(entry[0]))
            cert = CGCut(tuple((row, direction, Fraction(use, den * g)) for row, direction, use in used))
            out.setdefault(cut, (cert, violation))
    ranked = sorted(out.items(), key=lambda item: (-item[1][1], item[0].render()))
    return [(cut, cert) for cut, (cert, _) in ranked]


@dataclass
class PropagationResult:
    """Fixed-point interval propagation outcome.

    ``derived`` lists newly certified single-variable bound rows in derivation
    order. Each certificate cites the row objects it means: rows of C, the
    box's own rows and earlier derived rows. ``fixes`` and ``farkas`` check
    against C, the box and the derived rows they cite. ``fixes`` pairs each
    pinned difference's row ``x - y = c`` that C lacks with its derivation.
    ``farkas`` set means the subproblem is empty.
    """

    fixes: list[tuple[LinConstraint, BoundFix]]
    derived: list[tuple[LinConstraint, CGCut]]
    farkas: FarkasProof | None = None

    @property
    def infeasible(self) -> bool:
        return self.farkas is not None


def propagate_bounds(sub: Subproblem, bounds: Bounds) -> PropagationResult:
    """Tighten per-variable intervals; detect pinned differences and emptiness.

    Each round visits the oriented rows ``sum_u a_u * x_u >= rhs`` in the
    relaxation's row order (``_order``; two rows may render alike, so not by
    their text) and takes each row's largest activity over the current
    intervals once: the sum over the finite ends that maximise each term, and
    the one variable whose end is infinite, if there is exactly one. A row
    with two infinite ends bounds nothing. Variable ``v``'s limit is ``rhs``
    minus that activity without its own term (activity-based bound
    tightening, as in Achterberg et al., 2020). Tightening ``v`` moves the
    end that ``v`` does not contribute to the row's activity, so the sum stays
    exact for the rest of the row, and every bound, certificate and their
    order is the one that re-summing the other variables for each bound
    would give.
    """
    base_rows = sorted(sub.cons, key=_order)

    # the working interval of every variable the rows mention
    lo: dict[Var, int | None] = {}
    hi: dict[Var, int | None] = {}
    # the base or derived row behind each tightened end; an end never tightened is the box's row
    lo_cite: dict[Var, LinConstraint] = {}
    hi_cite: dict[Var, LinConstraint] = {}
    # a derived bound is strictly tighter than the box end it started from, so never a box row
    available: dict[LinConstraint, LinConstraint] = {row: row for row in base_rows}
    # one Fraction per multiplier value, shared by every certificate of the call
    fractions: dict[tuple[int, int], Fraction] = {}

    derived: list[tuple[LinConstraint, CGCut]] = []

    def lo_row(v: Var) -> LinConstraint:
        return lo_cite.get(v) or bounds.row_lo(v)

    def hi_row(v: Var) -> LinConstraint:
        return hi_cite.get(v) or bounds.row_hi(v)

    def fraction(num: int, den: int) -> Fraction:
        q = fractions.get((num, den))
        if q is None:
            q = fractions[num, den] = Fraction(num, den)
        return q

    def record(cut: LinConstraint, terms: Terms, row: LinConstraint, direction: str, v: Var, a_v: int) -> LinConstraint:
        """Admit the bound on ``v`` that ``row`` gives from the other variables' current bounds; returns the row cited for it."""
        known = available.get(cut)
        if known is not None:
            return known
        scale = abs(a_v)
        entries: list[ComboEntry] = [(row, direction, fraction(1, scale))]
        for u, a_u in terms:
            if u == v:
                continue
            if a_u > 0:
                entries.append((hi_row(u), "le", fraction(a_u, scale)))
            else:
                entries.append((lo_row(u), "ge", fraction(-a_u, scale)))
        derived.append((cut, CGCut(tuple(entries))))
        available[cut] = cut
        return cut

    oriented: list[tuple[Terms, int, LinConstraint, str]] = []
    for row in base_rows:
        terms = row.lhs.terms
        if not terms:
            proof = _constant_row_proof(row)
            if proof is not None:
                return PropagationResult([], derived, proof)
            continue
        for v, _ in terms:
            if v not in lo:
                lo[v], hi[v] = bounds.interval(v)
        # every subproblem row is normalized: <=, >= or =
        if row.rel is not Relation.LE:
            oriented.append((terms, row.rhs, row, "ge"))
        if row.rel is not Relation.GE:
            oriented.append((tuple([(v, -a) for v, a in terms]), -row.rhs, row, "le"))

    for _ in range(_PROPAGATION_ROUNDS):
        improved = False
        for terms, rhs, row, direction in oriented:
            # the row's largest activity: the finite ends' sum, and the variable whose end is infinite
            total = 0
            free: Var | None = None
            for u, a_u in terms:
                end = hi[u] if a_u > 0 else lo[u]
                if end is not None:
                    total += a_u * end
                elif free is None:
                    free = u
                else:
                    break
            else:
                for v, a_v in terms:
                    # the bound on v when every other variable sits at its worst end
                    if free is None:
                        limit = rhs - total + a_v * (hi[v] if a_v > 0 else lo[v])
                    elif v == free:
                        limit = rhs - total
                    else:
                        continue
                    if a_v > 0:
                        cand = -(-limit // a_v)
                        if lo[v] is None or cand > lo[v]:
                            lo[v] = cand
                            lo_cite[v] = record(LinConstraint(LinExpr.var(v), Relation.GE, cand), terms, row, direction, v, a_v)
                            improved = True
                    else:
                        cand = limit // a_v
                        if hi[v] is None or cand < hi[v]:
                            hi[v] = cand
                            hi_cite[v] = record(LinConstraint(LinExpr.var(v), Relation.LE, cand), terms, row, direction, v, a_v)
                            improved = True
                    if lo[v] is not None and hi[v] is not None and lo[v] > hi[v]:
                        one = fraction(1, 1)
                        proof = FarkasProof(((lo_row(v), "ge", one), (hi_row(v), "le", one)))
                        return PropagationResult([], derived, proof)
        if not improved:
            break

    # Opposing difference bounds fix x - y = c. A pinned variable gets no fix:
    # v >= c and v <= c are rows already (its interval starts at box rows and
    # moves only through record, which finds the row among the base rows or
    # derives it, learned first), and v = c would change no later step: same
    # LP column bounds and pivots, no new propagated row and no literal's true
    # arm. It sorts before v >= c, so it may certify the column's lower bound,
    # but a cut entry then takes the direction and fractional multiplier that
    # v >= c would, so every cut is the same.
    # Each side keeps the first tightest bound num / den on a difference,
    # compared by cross-multiplying; a Fraction is built only for a fix.
    fixes: list[tuple[LinConstraint, BoundFix]] = []
    diff_lo: dict[tuple[Var, Var], tuple[int, int, LinConstraint, str]] = {}
    diff_hi: dict[tuple[Var, Var], tuple[int, int, LinConstraint, str]] = {}
    for terms, rhs, row, direction in oriented:
        if len(terms) != 2:
            continue
        (u1, a1), (u2, a2) = terms  # sorted by variable
        if a1 != -a2:
            continue
        # a1 * (u1 - u2) >= rhs bounds u1 - u2 below by rhs / |a1| when a1 > 0, else above by -rhs / |a1|
        den = abs(a1)
        if a1 > 0:
            cur = diff_lo.get((u1, u2))
            if cur is None or rhs * cur[1] > cur[0] * den:
                diff_lo[u1, u2] = (rhs, den, row, direction)
        else:
            cur = diff_hi.get((u1, u2))
            if cur is None or -rhs * cur[1] < cur[0] * den:
                diff_hi[u1, u2] = (-rhs, den, row, direction)
    for pair in sorted(diff_lo.keys() & diff_hi.keys()):
        lo_num, lo_den, lo_src, lo_dir = diff_lo[pair]
        hi_num, hi_den, hi_src, hi_dir = diff_hi[pair]
        if lo_num * hi_den != hi_num * lo_den or lo_num % lo_den:
            continue
        eq = diff_equality(*pair, lo_num // lo_den)
        if eq in sub.cons:
            continue
        fix = BoundFix(CGCut(((lo_src, lo_dir, Fraction(1, lo_den)),)), CGCut(((hi_src, hi_dir, Fraction(1, hi_den)),)))
        fixes.append((eq, fix))

    return PropagationResult(fixes, derived)
