"""Exact rational relaxation: simplex, dual certificates, rounding cuts, propagation.

The solver is a two-phase primal simplex with Bland's rule, so it terminates
on every input, and its answers are exact. The tableau is sparse and
integer-preserving: each row stores only its nonzero entries, as ``int``
numerators over one positive row denominator, and is divided by the gcd of
its numbers after every update (Edmonds' fraction-free elimination). No
``Fraction`` is built inside a pivot; values become ``Fraction`` only when
they leave the tableau. The Gaussian elimination that recovers Gomory
multipliers uses the same rows. Box bounds participate as explicit rows;
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
from dataclasses import dataclass
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
    frac_floor,
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
    x_star: dict[Var, Fraction]
    value: Fraction
    dual: tuple[ComboEntry, ...]
    tableau: Tableau


@dataclass(frozen=True)
class LpInfeasible:
    farkas: FarkasProof


@dataclass(frozen=True)
class LpUnbounded:
    point: dict[Var, Fraction]
    ray: dict[Var, Fraction]


LpOutcome = LpOptimal | LpInfeasible | LpUnbounded


def assemble_rows(sub: Subproblem, bounds: Bounds, objective: LinExpr = LinExpr()) -> list[LinConstraint]:
    """All rows visible to the relaxation: C, D rendered, finite bound ends."""
    rows: set[LinConstraint] = set()
    relevant: set[Var] = set(objective.vars())
    for c in sub.cons:
        rows.add(normalize(c))
        relevant.update(c.lhs.vars())
    for d in sub.eqs:
        rows.add(d.as_constraint())
        relevant.update(d.as_constraint().lhs.vars())
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

    def add_row(self, coeffs: dict[int, int], rhs: int) -> int:
        self.nums.append({j: a for j, a in coeffs.items() if a})
        self.rhs.append(rhs)
        self.den.append(1)
        self.basis.append(-1)
        self.alive.append(True)
        return len(self.nums) - 1

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

    def entry(self, r: int, j: int) -> Fraction:
        return Fraction(self.nums[r].get(j, 0), self.den[r])

    def column_value(self, j: int) -> Fraction:
        for r, b in enumerate(self.basis):
            if b == j and self.alive[r]:
                return Fraction(self.rhs[r], self.den[r])
        return Fraction(0)


def lp_solve(sub: Subproblem, objective: LinExpr, bounds: Bounds) -> LpOutcome:
    """Solve the rational relaxation of the subproblem inside its box."""
    rows = assemble_rows(sub, bounds, objective)

    relevant: set[Var] = set(objective.vars())
    for row in rows:
        relevant.update(row.lhs.vars())
    names = sorted(relevant)

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

    # column layout: shifted vars get one nonnegative column, free vars a split pair
    col_meta: list[tuple[str, Var | int]] = []
    pos_col: dict[Var, int] = {}
    neg_col: dict[Var, int] = {}
    for v in names:
        pos_col[v] = len(col_meta)
        col_meta.append(("pos", v))
        if v not in shifts:
            neg_col[v] = len(col_meta)
            col_meta.append(("neg", v))
    n_struct = len(col_meta)

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
        specs.append([row, coeffs, rhs, sigma, slack_sign])

    slack_col: dict[int, int] = {}
    art_col: dict[int, int] = {}
    next_col = n_struct
    for i, (_, _, _, _, slack_sign) in enumerate(specs):
        if slack_sign != 0:
            slack_col[i] = next_col
            col_meta.append(("slack", i))
            next_col += 1
    for i, (_, _, _, _, slack_sign) in enumerate(specs):
        if slack_sign != 1:
            art_col[i] = next_col
            col_meta.append(("art", i))
            next_col += 1

    sx = _Simplex()
    ref_col: list[int] = []
    for i, (row, coeffs, rhs, sigma, slack_sign) in enumerate(specs):
        sparse: dict[int, int] = {}
        for v, a in coeffs.items():
            sparse[pos_col[v]] = a
            if v in neg_col:
                sparse[neg_col[v]] = -a
        if slack_sign != 0:
            sparse[slack_col[i]] = slack_sign
        if i in art_col:
            sparse[art_col[i]] = 1
        r = sx.add_row(sparse, rhs)
        if i in art_col:
            sx.basis[r] = art_col[i]
            ref_col.append(art_col[i])
        else:
            sx.basis[r] = slack_col[i]
            ref_col.append(slack_col[i])

    is_art = [meta[0] == "art" for meta in col_meta]
    enterable = [not a for a in is_art]

    # phase 1: minimize the artificial total
    phase1_costs = [1 if a else 0 for a in is_art]
    sx.price(phase1_costs)
    status, _ = sx.run(enterable)
    if status != "optimal":
        raise InvariantError("phase 1 of the simplex went unbounded")

    def dual_entries(costs: list[int]) -> list[ComboEntry]:
        entries: list[ComboEntry] = []
        for i, (row, _, _, sigma, _) in enumerate(specs):
            ref = ref_col[i]
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
        for v, row in lo_row_of.items():
            rc = sx.cost.get(pos_col[v], 0)
            if rc != 0:
                if rc < 0:
                    raise InvariantError("reduced cost of a shifted column went negative")
                entries.append((row, "ge", Fraction(rc, sx.cost_den)))
        return entries

    # the phase 1 optimum -costval / cost_den is positive
    if sx.costval < 0:
        proof = FarkasProof(tuple(dual_entries(phase1_costs)))
        check_farkas(proof, available)
        return LpInfeasible(proof)

    # drive leftover artificials out of the basis; dependent rows are retired
    n_plain = n_struct + len(slack_col)  # artificial columns come last
    for r, row in enumerate(sx.nums):
        if not sx.alive[r] or not is_art[sx.basis[r]]:
            continue
        j = min((k for k in row if k < n_plain), default=-1)
        if j >= 0:
            sx.pivot(r, j)
        else:
            sx.alive[r] = False

    # phase 2: the real objective over structural columns
    phase2_costs = [0] * next_col
    for v, c in objective.terms:
        phase2_costs[pos_col[v]] += c
        if v in neg_col:
            phase2_costs[neg_col[v]] -= c
    sx.price(phase2_costs)
    status, enter = sx.run(enterable)

    def current_point() -> dict[Var, Fraction]:
        point = {}
        for v in names:
            val = sx.column_value(pos_col[v])
            if v in neg_col:
                val = val - sx.column_value(neg_col[v])
            point[v] = val + shifts.get(v, 0)
        return point

    if status == "unbounded":
        dz = {enter: Fraction(1)}
        for r, row in enumerate(sx.nums):
            if sx.alive[r] and enter in row:
                dz[sx.basis[r]] = -sx.entry(r, enter)
        ray = {}
        for v in names:
            d = dz.get(pos_col[v], Fraction(0))
            if v in neg_col:
                d = d - dz.get(neg_col[v], Fraction(0))
            if d != 0:
                ray[v] = d
        return LpUnbounded(current_point(), ray)

    x_star = current_point()
    value = Fraction(0)
    for v, c in objective.terms:
        value += c * x_star[v]
    dual = tuple(dual_entries(phase2_costs))
    bound = ObjValue.finite(frac_ceil(value))
    check_lb_dual(LbDual(bound, dual), available, objective)
    tableau = Tableau(tuple(rows), x_star, objective, value)
    return LpOptimal(x_star, value, dual, tableau)


def lower_bound(sub: Subproblem, objective: LinExpr, bounds: Bounds) -> tuple[ObjValue, LbDual]:
    """Certified objective lower bound over the subproblem's integer points."""
    out = lp_solve(sub, objective, bounds)
    if isinstance(out, LpInfeasible):
        bound = ObjValue.pos_inf()
        return bound, LbDual(bound, out.farkas.entries)
    if isinstance(out, LpUnbounded):
        bound = ObjValue.neg_inf()
        return bound, LbDual(bound, ())
    bound = ObjValue.finite(frac_ceil(out.value))
    return bound, LbDual(bound, out.dual)


def _solve_combination(rows: list[tuple[dict[Var, int], int, int]], target: Var) -> list[Fraction] | None:
    """Find multipliers expressing the unit vector of ``target`` over row vectors.

    Rows are (coefficients, rhs, tag); only coefficients matter here.
    Gauss-Jordan elimination over the simplex's integer rows, pivoting in
    each column on the first remaining equation that has it; returns None
    when the unit vector is outside the row space.
    """
    vars_all = sorted({v for coeffs, _, _ in rows for v in coeffs} | {target})
    n = len(vars_all)
    m = len(rows)
    # columns of the system are the row multipliers; one equation per variable
    at = {v: i for i, v in enumerate(vars_all)}
    eqs: list[Row] = [({}, 1 if v == target else 0, 1) for v in vars_all]
    for j, (coeffs, _, _) in enumerate(rows):
        for v, a in coeffs.items():
            if a:
                eqs[at[v]][0][j] = a
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
    # consistency: all-zero rows must carry zero right sides
    if any(rhs != 0 and not nums for nums, rhs, _ in eqs):
        return None
    sol = [Fraction(0)] * m
    for j, p in enumerate(piv_of_col):
        if p is not None:
            sol[j] = Fraction(eqs[p][1], eqs[p][2])
    # verify, over the common denominator: guards against rank deficiencies
    # interacting with free columns
    scale = math.lcm(*(q.denominator for q in sol))
    total: dict[Var, int] = {}
    for q, (coeffs, _, _) in zip(sol, rows):
        if q:
            k = q.numerator * (scale // q.denominator)
            for v, a in coeffs.items():
                total[v] = total.get(v, 0) + k * a
    if any(total.get(v, 0) != (scale if v == target else 0) for v in vars_all):
        return None
    return sol


def derive_gomory_cuts(t: Tableau) -> list[tuple[LinConstraint, CGCut]]:
    """Rounding cuts for the fractional coordinates of an optimal vertex.

    Each cut is produced with the nonnegative-combination certificate that
    the kernel checks: take the multipliers expressing the fractional
    coordinate over the tight rows, keep the fractional parts on inequality
    rows, and round the aggregated right side up.
    """
    fractional = sorted(v for v, q in t.x_star.items() if q.denominator != 1)
    if not fractional:
        raise NoFractionalRow("optimum is integral")

    tight: list[tuple[dict[Var, int], int, LinConstraint, str]] = []
    for row in t.rows:
        if not row.lhs.terms:
            continue
        val = sum(Fraction(c) * t.x_star.get(v, Fraction(0)) for v, c in row.lhs.terms)
        if val != row.rhs:
            continue
        if row.rel is Relation.LE:
            tight.append(({v: -c for v, c in row.lhs.terms}, -row.rhs, row, "le"))
        else:
            tight.append((dict(row.lhs.terms), row.rhs, row, "eq" if row.rel is Relation.EQ else "ge"))

    available = frozenset(t.rows)
    existing = set(available)
    out: list[tuple[LinConstraint, CGCut, Fraction]] = []
    for v in fractional:
        lam = _solve_combination([(coeffs, rhs, 0) for coeffs, rhs, _, _ in tight], v)
        if lam is None:
            continue
        agg: dict[Var, Fraction] = {}
        rhs_total = Fraction(0)
        entries: list[ComboEntry] = []
        for mult, (coeffs, rhs, row, sense) in zip(lam, tight):
            use = mult if sense == "eq" else mult - frac_floor(mult)
            if use == 0:
                continue
            for name, c in coeffs.items():
                agg[name] = agg.get(name, Fraction(0)) + use * c
            rhs_total += use * rhs
            if sense == "eq":
                entries.append((row, "ge" if use > 0 else "le", abs(use)))
            else:
                entries.append((row, sense, use))
        agg = {name: c for name, c in agg.items() if c != 0}
        if any(c.denominator != 1 for c in agg.values()):
            continue
        coeff_ints = {name: int(c) for name, c in agg.items()}
        if not coeff_ints:
            if frac_ceil(rhs_total) <= 0:
                continue
            cut = LinConstraint(LinExpr.zero(), Relation.GE, frac_ceil(rhs_total))
        else:
            g = 0
            for c in coeff_ints.values():
                g = math.gcd(g, abs(c))
            if g > 1:
                coeff_ints = {name: c // g for name, c in coeff_ints.items()}
                entries = [(row, d, m / g) for row, d, m in entries]
                rhs_total = rhs_total / g
            cut = LinConstraint(LinExpr.of(coeff_ints), Relation.GE, frac_ceil(rhs_total))
        if cut in existing:
            continue
        cut_at_star = sum(Fraction(c) * t.x_star.get(name, Fraction(0)) for name, c in cut.lhs.terms)
        violation = cut.rhs - cut_at_star
        if violation <= 0:
            continue
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
