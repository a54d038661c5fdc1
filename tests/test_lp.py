import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imtsolver import engine, lp
from imtsolver.certificates import LbDual, check_bound_fix, check_cg, check_farkas, check_lb_dual
from imtsolver.engine import solve
from imtsolver.kernel import rows_of
from imtsolver.lp import (
    LpInfeasible,
    LpOptimal,
    LpUnbounded,
    NoFractionalRow,
    _Simplex,
    _solve_combinations,
    assemble_rows,
    derive_gomory_cuts,
    lp_solve,
    propagate_bounds,
)
from imtsolver.model import (
    Bounds,
    ImtInstance,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    SimpleEquality,
    Subproblem,
    frac_ceil,
    satisfies,
    satisfies_all,
)
from imtsolver.smtlib import encode_script

from gen import cnf_script, random_cnf, random_instance, random_lp_instance
from lp_oracle import vertex_optimum


def lp_parts(instance):
    return Subproblem.root(instance.constraints), instance.objective, instance.bounds


def feasible_points(instance, sub):
    for point in instance.bounds.iter_box(instance.vars):
        if satisfies_all(sub.cons, point):
            yield point


def test_lp_matches_vertex_enumeration_on_random_instances():
    rng = random.Random(4001)
    optimal = infeasible = 0
    for _ in range(120):
        instance = random_lp_instance(rng)
        sub, obj, bounds = lp_parts(instance)
        have = frozenset(assemble_rows(sub, bounds, obj))
        status, value = vertex_optimum(sub, obj, bounds)
        out = lp_solve(sub, obj, bounds)
        if status == "infeasible":
            infeasible += 1
            assert isinstance(out, LpInfeasible)
            check_farkas(out.farkas, have)
        else:
            optimal += 1
            assert isinstance(out, LpOptimal)
            assert out.value == value
            assert satisfies_all(have, out.x_star)
            bound = ObjValue.finite(-(-value.numerator // value.denominator))
            check_lb_dual(LbDual(bound, out.dual), have, obj)
    # the generator must exercise both outcomes
    assert optimal > 30 and infeasible > 10


def test_lp_unbounded_reports_a_certified_ray():
    sub = Subproblem.root([LinConstraint(LinExpr.var("x"), Relation.LE, 5)])
    out = lp_solve(sub, LinExpr.var("x"), Bounds({}))
    assert isinstance(out, LpUnbounded)
    assert satisfies_all(sub.cons, out.point)
    drift = sum(c * out.ray.get(v, Fraction(0)) for v, c in LinExpr.var("x").terms)
    assert drift < 0
    for row in sub.cons:
        along = sum(c * out.ray.get(v, Fraction(0)) for v, c in row.lhs.terms)
        if row.rel is Relation.LE:
            assert along <= 0
        elif row.rel is Relation.GE:
            assert along >= 0
        else:
            assert along == 0


def test_lp_handles_equality_only_feasible_set():
    sub = Subproblem.root(
        [LinConstraint(LinExpr.of([("x", 1), ("y", 1)]), Relation.EQ, 4)]
    )
    out = lp_solve(sub, LinExpr.var("x"), Bounds({"x": (0, 9), "y": (0, 3)}))
    assert isinstance(out, LpOptimal)
    assert out.value == 1  # y maxes at 3


def test_gomory_cut_on_known_fractional_vertices():
    cases = [
        # rows, objective, expected cut among the derived ones
        (
            [LinConstraint(LinExpr.of([("x", 2), ("y", 2)]), Relation.LE, 7)],
            LinExpr.of([("x", -1), ("y", -1)]),
            LinConstraint(LinExpr.of([("x", -1), ("y", -1)]), Relation.GE, -3),
        ),
        (
            [LinConstraint(LinExpr.of([("x", 2)]), Relation.LE, 3)],
            LinExpr.of([("x", -1)]),
            LinConstraint(LinExpr.of([("x", -1)]), Relation.GE, -1),
        ),
        (
            [LinConstraint(LinExpr.of([("x", 3), ("y", 3)]), Relation.GE, 5)],
            LinExpr.of([("x", 1), ("y", 1)]),
            LinConstraint(LinExpr.of([("x", 1), ("y", 1)]), Relation.GE, 2),
        ),
    ]
    bounds = Bounds({"x": (0, 5), "y": (0, 5)})
    for rows, obj, expected in cases:
        sub = Subproblem.root(rows)
        out = lp_solve(sub, obj, bounds)
        assert isinstance(out, LpOptimal)
        cuts = derive_gomory_cuts(out)
        assert expected in {cut for cut, _ in cuts}
        for cut, cert in cuts:
            check_cg(cert, frozenset(out.rows), cut)


def test_gomory_cuts_are_certified_and_preserve_integer_points():
    rng = random.Random(4002)
    seen = 0
    for _ in range(400):
        instance = random_lp_instance(rng)
        sub, obj, bounds = lp_parts(instance)
        out = lp_solve(sub, obj, bounds)
        if not isinstance(out, LpOptimal):
            continue
        if all(q.denominator == 1 for q in out.x_star.values()):
            with pytest.raises(NoFractionalRow):
                derive_gomory_cuts(out)
            continue
        cuts = derive_gomory_cuts(out)
        have = frozenset(out.rows)
        for cut, cert in cuts:
            seen += 1
            check_cg(cert, have, cut)
            # strictly violated at the fractional vertex
            at_star = sum(
                Fraction(c) * out.x_star.get(v, Fraction(0)) for v, c in cut.lhs.terms
            )
            assert at_star < cut.rhs
            for point in feasible_points(instance, sub):
                assert satisfies(cut, point)
    assert seen >= 15


def test_propagation_is_sound_and_certified():
    rng = random.Random(4003)
    checked = 0
    for _ in range(150):
        instance = random_lp_instance(rng, max_vars=3)
        sub, _, bounds = lp_parts(instance)
        res = propagate_bounds(sub, bounds)
        have = set(rows_of(instance, sub))
        for cut, cert in res.derived:
            check_cg(cert, frozenset(have), cut)
            have.add(cut)
        for d, fix in res.fixes:
            check_bound_fix(fix, frozenset(have), d)
        if res.farkas is not None:
            check_farkas(res.farkas, frozenset(have))
        points = list(feasible_points(instance, sub))
        if res.farkas is not None:
            assert not points
            continue
        checked += 1
        for point in points:
            for cut, _ in res.derived:
                assert satisfies(cut, point)
            for d, _ in res.fixes:
                assert satisfies(d.as_constraint(), point)
    assert checked > 50


def test_propagation_never_derives_a_box_row(monkeypatch):
    # a derived bound is strictly tighter than the box end it started from,
    # so propagation need not look its rows up among the box rows
    seen = []

    def recording(sub, bounds):
        res = propagate_bounds(sub, bounds)
        seen.append(res)
        return res

    monkeypatch.setattr(engine, "propagate_bounds", recording)
    rng = random.Random(4007)
    derived = 0
    for _ in range(300):
        instance = random_instance(rng)
        seen.clear()
        solve(instance)
        box = set(instance.box_rows)
        for res in seen:
            assert box.isdisjoint(cut for cut, _ in res.derived)
            derived += len(res.derived)
    assert derived > 100


def test_propagation_detects_emptiness_between_fractional_bounds():
    # 2x <= 1 and 2x >= 1 leave no integer x
    rows = [
        LinConstraint(LinExpr.of([("x", 2)]), Relation.LE, 1),
        LinConstraint(LinExpr.of([("x", 2)]), Relation.GE, 1),
    ]
    sub = Subproblem.root(rows)
    res = propagate_bounds(sub, Bounds({"x": (0, 3)}))
    assert res.infeasible


def test_propagation_fixes_differences_and_leaves_pinned_variables_to_their_rows():
    x_lo = LinConstraint(LinExpr.var("x"), Relation.GE, 2)
    x_hi = LinConstraint(LinExpr.var("x"), Relation.LE, 2)
    rows = [
        x_lo,
        x_hi,
        LinConstraint(LinExpr.of([("y", 1), ("z", -1)]), Relation.LE, 3),
        LinConstraint(LinExpr.of([("y", 1), ("z", -1)]), Relation.GE, 3),
    ]
    bounds = Bounds({"x": (0, 9), "y": (0, 9), "z": (0, 9)})
    instance = ImtInstance(["x", "y", "z"], bounds, rows)
    sub = Subproblem.root(rows)
    res = propagate_bounds(sub, bounds)
    fixed = {d for d, _ in res.fixes}
    assert SimpleEquality.diff("y", "z", 3) in fixed
    # x is pinned at 2, but its two unit rows already say so
    assert not any(d.y is None for d in fixed)
    assert {x_lo, x_hi} <= rows_of(instance, sub)


def test_degenerate_beale_lp_reaches_its_exact_optimum():
    # Beale's example (scaled to integers), on which Dantzig's rule cycles
    rows = [
        LinConstraint(LinExpr.of([("x4", 1), ("x5", -32), ("x6", -4), ("x7", 36)]), Relation.LE, 0),
        LinConstraint(LinExpr.of([("x4", 1), ("x5", -24), ("x6", -1), ("x7", 6)]), Relation.LE, 0),
        LinConstraint(LinExpr.var("x6"), Relation.LE, 1),
    ]
    obj = LinExpr.of([("x4", -3), ("x5", 80), ("x6", -2), ("x7", 24)])
    sub = Subproblem.root(rows)
    bounds = Bounds({v: (0, None) for v in ("x4", "x5", "x6", "x7")})
    out = lp_solve(sub, obj, bounds)
    assert isinstance(out, LpOptimal)
    assert out.value == -5
    have = frozenset(assemble_rows(sub, bounds, obj))
    assert satisfies_all(have, out.x_star)
    check_lb_dual(LbDual(ObjValue.finite(-5), out.dual), have, obj)


def as_fractions(sol):
    """One target's multipliers from ``_solve_combinations`` as ``Fraction`` values."""
    if sol is None:
        return None
    nums, den = sol
    return [Fraction(k, den) for k in nums]


def test_solve_combination_rejects_a_target_outside_the_row_space():
    rows = [{"x": 1, "y": 1}, {"x": 2, "y": 2}]
    assert _solve_combinations(rows, ["x"]) == [None]
    # a variable no row mentions, beside one inside the row space
    assert _solve_combinations([{"x": 2}], ["w", "x"]) == [None, ([1], 2)]


def test_solve_combination_is_exact_on_rank_deficient_rows():
    rows = [{"x": 1, "y": 1}, {"x": 1, "y": 1}, {"y": 2}, {"x": 3, "y": 3}]
    got = [as_fractions(sol) for sol in _solve_combinations(rows, ["x", "y"])]
    assert got == [
        [Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(0)],
    ]


def dense_solve_combination(rows, target):
    """Reference: Gauss-Jordan on dense Fraction rows, same pivot order."""
    vars_all = sorted({v for coeffs, _, _ in rows for v in coeffs} | {target})
    n, m = len(vars_all), len(rows)
    mat = [[Fraction(rows[j][0].get(v, 0)) for j in range(m)] for v in vars_all]
    rhs = [Fraction(int(v == target)) for v in vars_all]
    piv_of_col = [None] * m
    r = 0
    for j in range(m):
        p = next((i for i in range(r, n) if mat[i][j] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        rhs[r], rhs[p] = rhs[p], rhs[r]
        inv = 1 / mat[r][j]
        mat[r] = [x * inv for x in mat[r]]
        rhs[r] *= inv
        for i in range(n):
            if i != r and mat[i][j] != 0:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
                rhs[i] -= f * rhs[r]
        piv_of_col[j] = r
        r += 1
        if r == n:
            break
    sol = [Fraction(0) if p is None else rhs[p] for p in piv_of_col]
    for v in vars_all:
        if sum(q * coeffs.get(v, 0) for q, (coeffs, _, _) in zip(sol, rows)) != int(v == target):
            return None
    return sol


small_ints = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.dictionaries(st.sampled_from("abcd"), small_ints, max_size=4), min_size=1, max_size=6),
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True),
)
def test_solve_combination_matches_dense_fractions(coeff_rows, targets):
    # one batched elimination gives each target what a dense elimination of
    # its own gives, "e" (in no row) and rank-deficient targets included
    rows = [(coeffs, 0, 0) for coeffs in coeff_rows]
    got = [as_fractions(sol) for sol in _solve_combinations(coeff_rows, targets)]
    assert got == [dense_solve_combination(rows, target) for target in targets]


def assert_integer_row(nums, rhs, den):
    assert den > 0
    assert all(v != 0 for v in nums.values())
    assert math.gcd(den, rhs, *nums.values()) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pivots_keep_rows_reduced_and_exact(data):
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 6))
    table = [data.draw(st.lists(small_ints, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    rhs = data.draw(st.lists(small_ints, min_size=nrows, max_size=nrows))
    costs = data.draw(st.lists(small_ints, min_size=ncols, max_size=ncols))
    sx = _Simplex(LinExpr(), set())
    for coeffs, b in zip(table, rhs):
        sx.add_row(dict(enumerate(coeffs)), b)
    sx.cost, sx.costval, sx.cost_den = {j: c for j, c in enumerate(costs) if c}, 0, 1
    # the dense Fraction reference, updated in step; the cost row goes last
    ref = [[Fraction(a) for a in coeffs] + [Fraction(b)] for coeffs, b in zip(table, rhs)]
    ref.append([Fraction(c) for c in costs] + [Fraction(0)])
    for _ in range(data.draw(st.integers(0, 6))):
        choices = [(r, j) for r in range(nrows) for j in range(ncols) if ref[r][j] != 0]
        if not choices:
            break
        r, j = data.draw(st.sampled_from(choices))
        sx.pivot(r, j)
        ref[r] = [x / ref[r][j] for x in ref[r]]
        for i, other in enumerate(ref):
            if i != r and other[j] != 0:
                ref[i] = [a - other[j] * b for a, b in zip(other, ref[r])]
        for i in range(nrows):
            assert_integer_row(*sx.row(i))
            nums, rhs, den = sx.row(i)
            assert [Fraction(nums.get(k, 0), den) for k in range(ncols)] + [Fraction(rhs, den)] == ref[i]
        assert_integer_row(sx.cost, sx.costval, sx.cost_den)
        cost_values = [Fraction(sx.cost.get(k, 0), sx.cost_den) for k in range(ncols)]
        assert cost_values + [Fraction(sx.costval, sx.cost_den)] == ref[-1]


def row_of(terms, rel, rhs):
    return LinConstraint(LinExpr.of(terms), rel, rhs)


WARM_OBJ = LinExpr.of([("x", 1), ("y", 1)])
WARM_BOX = Bounds({"x": (0, 5), "y": (0, 5), "z": (0, 5)})
R1 = row_of([("x", 2), ("y", 2)], Relation.GE, 7)
R2 = row_of([("x", 1), ("y", -1)], Relation.LE, 2)


def test_cut_round_reoptimises_the_previous_simplex():
    out0 = lp_solve(Subproblem.root([R1, R2]), WARM_OBJ, WARM_BOX)
    assert isinstance(out0, LpOptimal) and out0.value == Fraction(7, 2)
    # a cut, plus a tighter copy of R1; R1 stays, so the round only adds rows
    cut = row_of([("x", 1), ("y", 1)], Relation.GE, 4)
    sub1 = Subproblem.root([R1, R2, cut, row_of([("x", 2), ("y", 2)], Relation.GE, 9)])
    cold1 = lp_solve(sub1, WARM_OBJ, WARM_BOX)
    out1 = lp_solve(sub1, WARM_OBJ, WARM_BOX, out0)
    assert isinstance(out1, LpOptimal)
    assert out1.state is out0.state
    assert out1.value == 9 / Fraction(2) == cold1.value
    # the tighter copy only moves the bound of R1's slack column
    assert out1.pivots < cold1.pivots
    have = frozenset(assemble_rows(sub1, WARM_BOX, WARM_OBJ))
    assert out1.rows == tuple(assemble_rows(sub1, WARM_BOX, WARM_OBJ))
    assert R1 not in {row for row, _, _ in out1.dual}
    check_lb_dual(LbDual(ObjValue.finite(5), out1.dual), have, WARM_OBJ)
    # a second round whose cut needs pivots on the same tableau
    sub2 = Subproblem.root([*sub1.cons, row_of([("x", 1), ("y", -2)], Relation.LE, 0)])
    cold2 = lp_solve(sub2, WARM_OBJ, WARM_BOX)
    out2 = lp_solve(sub2, WARM_OBJ, WARM_BOX, out1)
    assert isinstance(out2, LpOptimal) and out2.state is out0.state
    assert out2.value == cold2.value
    assert 0 < out2.pivots < cold2.pivots
    check_lb_dual(LbDual(ObjValue.finite(5), out2.dual), frozenset(assemble_rows(sub2, WARM_BOX, WARM_OBJ)), WARM_OBJ)
    # the tableau now belongs to out2: passing out0 again solves from scratch
    again = lp_solve(sub1, WARM_OBJ, WARM_BOX, out0)
    assert again.state is not out2.state
    assert (again.value, again.x_star, again.dual) == (cold1.value, cold1.x_star, cold1.dual)


@pytest.mark.parametrize(
    "base, later, later_box, later_obj, warm",
    [
        ([R1, R2], [R1, R2, row_of([("x", 1), ("z", 1)], Relation.GE, 4)], WARM_BOX, WARM_OBJ, False),
        ([R1, R2], [R1, R2, LinConstraint(LinExpr.zero(), Relation.GE, -1)], WARM_BOX, WARM_OBJ, False),
        ([R1, R2], [R1, R2], WARM_BOX, LinExpr.of([("x", 1), ("y", 2)]), False),
        ([R1, R2], [R1, R2, row_of([("x", 1), ("y", -1)], Relation.EQ, 1)], WARM_BOX, WARM_OBJ, True),
        ([R1, R2, row_of([("x", 1), ("y", -1)], Relation.EQ, 1)], [R1, R2], WARM_BOX, WARM_OBJ, False),
        ([R1, R2], [R1, R2], Bounds({"x": (1, 5), "y": (0, 5)}), WARM_OBJ, False),
        ([R1, R2], [R2], WARM_BOX, WARM_OBJ, False),
        (
            [R1, R2, row_of([("x", 1), ("y", 1)], Relation.EQ, 4), row_of([("x", 2), ("y", 2)], Relation.EQ, 8)],
            [row_of([("x", 2), ("y", 2)], Relation.GE, 8), R2]
            + [row_of([("x", 1), ("y", 1)], Relation.EQ, 4), row_of([("x", 2), ("y", 2)], Relation.EQ, 8)],
            WARM_BOX,
            WARM_OBJ,
            False,
        ),
    ],
    ids=[
        "new_variable",
        "constant_row_added",
        "changed_objective",
        "equality_added",
        "equality_removed",
        "folded_lower_bound_removed",
        "removed_slack_nonbasic",
        "removal_after_a_retired_row",
    ],
)
def test_cut_round_falls_back_to_a_cold_solve(base, later, later_box, later_obj, warm):
    # a new variable, a row without variables, a new objective or box, or any
    # forgotten row solves from scratch; a round that only added rows with
    # known variables, equalities among them, stays warm
    sub0, sub1 = Subproblem.root(base), Subproblem.root(later)
    out0 = lp_solve(sub0, WARM_OBJ, WARM_BOX)
    assert isinstance(out0, LpOptimal)
    out = lp_solve(sub1, later_obj, later_box, out0)
    cold = lp_solve(sub1, later_obj, later_box)
    assert isinstance(out, LpOptimal) and (out.state is out0.state) == warm
    # the same vertex and multipliers; a warm tableau may list them in another order
    assert (out.value, out.x_star) == (cold.value, cold.x_star)
    assert len(out.dual) == len(cold.dual) and set(out.dual) == set(cold.dual)
    have = frozenset(assemble_rows(sub1, later_box, later_obj))
    check_lb_dual(LbDual(ObjValue.finite(frac_ceil(out.value)), out.dual), have, later_obj)


# rows that successive cut rounds only add: a slack row, a second slack row
# with a tighter variable bound, a row the box implies with a copy of a box
# row, and an equality
ADDED_ROUNDS = [
    [row_of([("x", 1), ("y", 1)], Relation.GE, 4)],
    [row_of([("x", 1), ("y", -2)], Relation.LE, 0), row_of([("y", 1)], Relation.GE, 1)],
    [row_of([("x", 1), ("y", 1)], Relation.LE, 20), row_of([("x", 1)], Relation.LE, 5)],
    [row_of([("x", 1), ("y", -1)], Relation.EQ, 1)],
]


def test_rounds_that_only_add_rows_merge_them_into_the_previous_rows(monkeypatch):
    sub = Subproblem.root([R1, R2])
    out = lp_solve(sub, WARM_OBJ, WARM_BOX)
    pivots = 0
    for added in ADDED_ROUNDS:
        sub = Subproblem(sub.ident + 1, sub.cons | frozenset(added))
        cold = lp_solve(sub, WARM_OBJ, WARM_BOX)
        prev = out
        with monkeypatch.context() as m:
            # the round's rows come from the previous optimum's, not from collecting them again
            m.setattr(lp, "_rows_and_vars", None)
            out = lp_solve(sub, WARM_OBJ, WARM_BOX, prev)
        assert isinstance(out, LpOptimal) and out.state is prev.state
        assert out.rows == tuple(assemble_rows(sub, WARM_BOX, WARM_OBJ))
        # the same vertex and multipliers; a warm tableau may list them in another order
        assert (out.value, out.x_star, set(out.dual)) == (cold.value, cold.x_star, set(cold.dual))
        pivots += out.pivots
    assert pivots > 0


@pytest.mark.parametrize(
    "box, added, warm",
    [
        (Bounds({"x": (3, 5), "y": (0, 5), "z": (0, 5)}), frozenset(), False),
        (WARM_BOX, frozenset({SimpleEquality.fix("x", 3).as_constraint()}), True),
    ],
    ids=["moved_box", "added_equality"],
)
def test_the_same_rows_over_another_box_or_equalities_match_a_cold_solve(box, added, warm):
    # another box solves from scratch; an equality is one more row, merged warm
    sub0 = Subproblem.root([R1, R2])
    out0 = lp_solve(sub0, WARM_OBJ, WARM_BOX)
    sub1 = Subproblem(1, sub0.cons | added)
    cold = lp_solve(sub1, WARM_OBJ, box)
    assert cold.value != out0.value
    out = lp_solve(sub1, WARM_OBJ, box, out0)
    assert (out.state is out0.state) == warm
    # the same vertex and multipliers; a warm tableau may list them in another order
    assert (out.value, out.x_star, set(out.dual)) == (cold.value, cold.x_star, set(cold.dual))
    assert out.rows == cold.rows == tuple(assemble_rows(sub1, box, WARM_OBJ))


def test_farkas_proof_citing_a_forgotten_row_falls_back():
    # the round forgot a row, so it re-solves from scratch and the proof
    # cites only rows still present
    forgotten = row_of([("x", 1), ("y", 1)], Relation.GE, 2)
    sub0 = Subproblem.root([forgotten])
    sub1 = Subproblem.root([row_of([("x", 1), ("y", 1)], Relation.GE, 3), row_of([("x", 1), ("y", 1)], Relation.LE, 1)])
    out0 = lp_solve(sub0, WARM_OBJ, WARM_BOX)
    out = lp_solve(sub1, WARM_OBJ, WARM_BOX, out0)
    assert isinstance(out, LpInfeasible)
    assert forgotten not in {row for row, _, _ in out.farkas.entries}
    check_farkas(out.farkas, frozenset(assemble_rows(sub1, WARM_BOX, WARM_OBJ)))
    cold = lp_solve(sub1, WARM_OBJ, WARM_BOX)
    assert isinstance(cold, LpInfeasible) and out.farkas == cold.farkas


one_sided = st.sampled_from((Relation.GE, Relation.LE))
warm_exprs = st.dictionaries(st.sampled_from("abc"), st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cut_rounds_reoptimised_in_place_match_cold_solves(data):
    box = Bounds({v: (data.draw(st.integers(-4, 0)), data.draw(st.integers(1, 4))) for v in "abc"})
    obj = LinExpr.of(data.draw(warm_exprs))
    rels = st.sampled_from((Relation.GE, Relation.LE, Relation.EQ))
    base = [
        row_of(data.draw(warm_exprs), data.draw(rels), data.draw(st.integers(-6, 6)))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    sub = Subproblem.root(base)
    out = lp_solve(sub, obj, box)
    for _ in range(3):
        if not isinstance(out, LpOptimal):
            break
        cons = set(sub.cons)
        # forget one-sided rows dominated by a tighter copy, as the engine's tidy does
        for row in sorted(cons, key=lambda r: r.render()):
            if row.rel is not Relation.EQ and data.draw(st.booleans()):
                step = data.draw(st.integers(0, 2))
                tighter = row.rhs + step if row.rel is Relation.GE else row.rhs - step
                cons.discard(row)
                cons.add(LinConstraint(row.lhs, row.rel, tighter))
        for _ in range(data.draw(st.integers(0, 3))):
            cons.add(row_of(data.draw(warm_exprs), data.draw(one_sided), data.draw(st.integers(-6, 6))))
        sub = Subproblem(0, frozenset(cons))
        have = frozenset(assemble_rows(sub, box, obj))
        cold = lp_solve(sub, obj, box)
        out = lp_solve(sub, obj, box, out)
        assert type(out) is type(cold)
        if isinstance(out, LpInfeasible):
            check_farkas(out.farkas, have)
        else:
            assert out.value == cold.value
            assert satisfies_all(have, out.x_star)
            bound = ObjValue.finite(-(-out.value.numerator // out.value.denominator))
            check_lb_dual(LbDual(bound, out.dual), have, obj)


@pytest.mark.parametrize(
    "lo_row, hi_row",
    [
        (row_of([("x", 1)], Relation.GE, 2), row_of([("x", 1)], Relation.LE, 1)),
        (row_of([("x", -1)], Relation.LE, -2), row_of([("x", -1)], Relation.GE, -1)),
    ],
    ids=["plain", "negated"],
)
def test_contradictory_bound_rows_give_a_two_entry_farkas_proof(lo_row, hi_row):
    sub, box, obj = Subproblem.root([lo_row, hi_row]), Bounds({"x": (0, 5)}), LinExpr.var("x")
    out = lp_solve(sub, obj, box)
    assert isinstance(out, LpInfeasible) and out.pivots == 0
    assert out.farkas.entries == ((lo_row, lo_row.rel.name.lower(), 1), (hi_row, hi_row.rel.name.lower(), 1))
    check_farkas(out.farkas, frozenset(assemble_rows(sub, box, obj)))


flipped = {Relation.GE: Relation.LE, Relation.LE: Relation.GE, Relation.EQ: Relation.EQ}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bounded_columns_match_vertex_enumeration(data):
    # box ends, +-1 and other single-variable rows, equalities, and variables
    # with no box that only rows bound
    table, rows = {}, []
    for v in "abc":
        lo, hi = data.draw(st.integers(-4, 0)), data.draw(st.integers(0, 4))
        if data.draw(st.booleans()):
            table[v] = (lo, hi)
            continue
        for end, rel in ((lo, Relation.GE), (hi, Relation.LE)):
            c = data.draw(st.sampled_from((1, -1, 2, -3)))
            rows.append(row_of([(v, c)], rel if c > 0 else flipped[rel], c * end))
    for _ in range(data.draw(st.integers(0, 4))):
        v = data.draw(st.sampled_from("abc"))
        terms = data.draw(
            st.sampled_from(([(v, 1)], [(v, -1)], [(v, 2)], [(v, -3)]))
            | warm_exprs.filter(lambda e: len(e) > 1).map(lambda e: list(e.items()))
        )
        rows.append(row_of(terms, data.draw(st.sampled_from(tuple(flipped))), data.draw(st.integers(-6, 6))))
    # rows the drawn box implies, which the simplex parks
    boxed = sorted(table)
    for _ in range(data.draw(st.integers(0, 2)) if boxed else 0):
        terms = data.draw(st.dictionaries(st.sampled_from(boxed), st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        low = sum(a * table[v][0 if a > 0 else 1] for v, a in terms.items())
        high = sum(a * table[v][1 if a > 0 else 0] for v, a in terms.items())
        gap = data.draw(st.integers(0, 2))
        if data.draw(st.booleans()):
            rows.append(row_of(list(terms.items()), Relation.GE, low - gap))
        else:
            rows.append(row_of(list(terms.items()), Relation.LE, high + gap))
    sub, box, obj = Subproblem.root(rows), Bounds(table), LinExpr.of(data.draw(warm_exprs))
    have = frozenset(assemble_rows(sub, box, obj))
    status, value = vertex_optimum(sub, obj, box)
    out = lp_solve(sub, obj, box)
    if status == "infeasible":
        assert isinstance(out, LpInfeasible)
        check_farkas(out.farkas, have)
    else:
        assert isinstance(out, LpOptimal) and out.value == value
        assert satisfies_all(have, out.x_star)
        check_lb_dual(LbDual(ObjValue.finite(frac_ceil(value)), out.dual), have, obj)


def slack_lhs(rows):
    """The left sides that get a slack column when no row is parked."""
    return {r.lhs for r in rows if r.lhs.terms and not (len(r.lhs.terms) == 1 and r.lhs.terms[0][1] in (1, -1))}


PARK_BOX = Bounds({"g": (0, 1), "x": (0, 2), "y": (0, 2)})
# g >= 1 with the box implies the next three rows; the last two need the tableau
PARKED = [
    row_of([("g", 1)], Relation.GE, 1),
    row_of([("g", 1), ("x", -1)], Relation.GE, -1),
    row_of([("g", 1), ("y", 1)], Relation.GE, 1),
    row_of([("x", 2)], Relation.LE, 5),
    row_of([("x", 1), ("y", 1)], Relation.GE, 1),
    row_of([("x", 2), ("y", -2)], Relation.LE, 1),
]


@pytest.mark.parametrize(
    "extra, status",
    [([], "optimal"), ([row_of([("x", 1), ("y", 1)], Relation.LE, 0)], "infeasible")],
    ids=["optimal", "infeasible"],
)
def test_rows_the_box_implies_get_no_tableau_row(extra, status):
    sub, obj = Subproblem.root(PARKED + extra), LinExpr.of([("x", 1), ("y", 3)])
    rows = assemble_rows(sub, PARK_BOX, obj)
    have = frozenset(rows)
    out = lp_solve(sub, obj, PARK_BOX)
    assert out.tableau_rows == len(slack_lhs(rows)) - 3
    want, value = vertex_optimum(sub, obj, PARK_BOX)
    assert want == status
    if status == "infeasible":
        assert isinstance(out, LpInfeasible)
        check_farkas(out.farkas, have)
    else:
        assert isinstance(out, LpOptimal) and out.value == value == Fraction(3, 2)
        assert out.rows == tuple(rows)
        assert satisfies_all(have, out.x_star)
        check_lb_dual(LbDual(ObjValue.finite(frac_ceil(value)), out.dual), have, obj)


def test_forgetting_a_certifying_bound_solves_from_scratch():
    box, obj = Bounds({"x": (0, 4), "y": (0, 2)}), LinExpr.of([("x", -2), ("y", -1)])
    joint = row_of([("x", 1), ("y", 1)], Relation.LE, 3)
    sub0 = Subproblem.root([row_of([("x", 1)], Relation.LE, 1), joint])
    out0 = lp_solve(sub0, obj, box)
    assert isinstance(out0, LpOptimal) and out0.tableau_rows == 0 and out0.value == -4
    # the round forgets x <= 1, which bounds x and made the joint row implied,
    # for a looser cut x <= 2; bounds only tighten, so this re-solves cold
    sub1 = Subproblem.root([row_of([("x", 1)], Relation.LE, 2), joint])
    rows = assemble_rows(sub1, box, obj)
    out1 = lp_solve(sub1, obj, box, out0)
    cold = lp_solve(sub1, obj, box)
    assert isinstance(out1, LpOptimal) and out1.state is not out0.state
    assert (out1.value, out1.x_star, out1.dual) == (cold.value, cold.x_star, cold.dual)
    assert (out1.value, out1.x_star) == (-5, {"x": 2, "y": 1})
    assert joint in {row for row, _, _ in out1.dual}
    check_lb_dual(LbDual(ObjValue.finite(-5), out1.dual), frozenset(rows), obj)


def test_the_clause_encodings_root_lp_has_one_tableau_row_per_clause():
    # each clause brings a gate g >= 1 and four more rows, three of which
    # the box then implies
    clauses = random_cnf(random.Random(6), 6, 25)
    instance = encode_script(cnf_script(clauses, 6)).instance
    sub, obj, bounds = lp_parts(instance)
    assert len(slack_lhs(assemble_rows(sub, bounds, obj))) > 3 * len(clauses)
    out = lp_solve(sub, obj, bounds)
    assert 0 < out.tableau_rows <= len(clauses)
