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
    Relation,
    Subproblem,
    diff_equality,
    frac_ceil,
    satisfies,
    satisfies_all,
)
from imtsolver.smtlib import encode_script

import propagation_reference
from gen import chain_model, cnf_script, iter_box, ladder_script, random_cnf, random_instance, random_lp_instance, root
from lp_oracle import vertex_optimum


def lp_parts(instance):
    return root(instance.constraints), instance.objective, instance.bounds


def feasible_points(instance, sub):
    for point in iter_box(instance.bounds, instance.vars):
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
            bound = -(-value.numerator // value.denominator)
            check_lb_dual(LbDual(bound, out.dual), have, obj)
    # the generator must exercise both outcomes
    assert optimal > 30 and infeasible > 10


def test_lp_unbounded_reports_a_certified_ray():
    sub = root([LinConstraint(LinExpr.var("x"), Relation.LE, 5)])
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
    sub = root(
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
        sub = root(rows)
        out = lp_solve(sub, obj, bounds)
        assert isinstance(out, LpOptimal)
        cuts = derive_gomory_cuts(out)
        assert expected in {cut for cut, _ in cuts}
        for cut, cert in cuts:
            check_cg(cert, frozenset(assemble_rows(sub, bounds, obj)), cut)


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
        have = frozenset(assemble_rows(sub, bounds, obj))
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


def test_a_cut_cites_only_rows_that_bound_a_nonbasic_column():
    # the multipliers come from the target's tableau row, so every entry is
    # the certified bound of a nonbasic column, in that bound's direction
    rng = random.Random(4004)
    lps = [lp_parts(encode_script(cnf_script(random_cnf(rng, 3, n), 3)).instance) for n in (16, 18, 20, 22, 24)]
    lps += [lp_parts(random_lp_instance(rng)) for _ in range(200)]
    entries = 0
    for sub, obj, bounds in lps:
        out = lp_solve(sub, obj, bounds)
        if not isinstance(out, LpOptimal) or all(q.denominator == 1 for q in out.x_star.values()):
            continue
        sx = out.state
        nonbasic = set(range(len(sx.lo))).difference(sx.basis)
        sources = {sx.lo_src[k] for k in nonbasic} | {sx.hi_src[k] for k in nonbasic}
        have = frozenset(assemble_rows(sub, bounds, obj))
        for cut, cert in derive_gomory_cuts(out):
            check_cg(cert, have, cut)
            for row, direction, _ in cert.entries:
                entries += 1
                assert (row, direction) in sources, row.render()
    assert entries >= 40


def test_a_row_through_a_free_nonbasic_column_gives_no_cut():
    # a* = 3/2 is basic in 2a - b - 3c >= 0, whose free column c sits at no
    # bound that a certificate could cite
    rows = [
        row_of([("a", -1)], Relation.LE, 3),
        row_of([("a", 2), ("b", -1), ("c", -3)], Relation.GE, 0),
        row_of([("d", -1)], Relation.GE, 1),
    ]
    out = lp_solve(root(rows), LinExpr.var("b", -1), Bounds({"b": (0, 3)}))
    assert isinstance(out, LpOptimal) and out.x_star["a"] == Fraction(3, 2)
    assert derive_gomory_cuts(out) == []


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
        for eq, fix in res.fixes:
            check_bound_fix(fix, frozenset(have), eq)
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
            for eq, _ in res.fixes:
                assert satisfies(eq, point)
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


def cites_only(cert, known):
    for row, _, _ in cert.entries:
        assert id(row) in known, row.render()
    return len(cert.entries)


def test_propagation_cites_the_row_objects_it_means(monkeypatch):
    # a certificate cites a row of C, the box's own row or an earlier derived
    # row as that very object, not an equal copy
    seen = []

    def recording(sub, bounds):
        res = propagate_bounds(sub, bounds)
        seen.append((sub, res))
        return res

    monkeypatch.setattr(engine, "propagate_bounds", recording)
    rng = random.Random(4007)
    cited = 0
    for _ in range(300):
        instance = random_instance(rng)
        seen.clear()
        solve(instance)
        for sub, res in seen:
            known = {id(row) for row in (*sub.cons, *instance.box_rows)}
            later = [half for _, fix in res.fixes for half in (fix.lower, fix.upper)]
            later += [res.farkas] if res.farkas else []
            for cut, cert in res.derived:
                cited += cites_only(cert, known)
                known.add(id(cut))  # a later derivation may cite it
            cited += sum(cites_only(cert, known) for cert in later)
    assert cited > 1000


def test_propagation_matches_the_reference_that_re_sums_each_row(monkeypatch):
    # one largest activity per row and round gives the same fixes, derived
    # rows, certificates and Farkas proofs, in the same order, on every call
    calls = 0

    def both(sub, bounds):
        nonlocal calls
        res = propagate_bounds(sub, bounds)
        ref = propagation_reference.propagate_bounds(sub, bounds)
        assert (res.fixes, res.derived, res.farkas) == (ref.fixes, ref.derived, ref.farkas)
        calls += 1
        return res

    monkeypatch.setattr(engine, "propagate_bounds", both)
    rng = random.Random(13)
    instances = [encode_script(cnf_script(random_cnf(rng, 3, n), 3)).instance for n in (16, 18, 20, 22, 24)]
    instances += [random_instance(rng) for _ in range(300)]
    instances += [encode_script(ladder_script(14, 5)).instance, chain_model(3)]
    for instance in instances:
        solve(instance)
    # open interval ends, which the boxed instances lack: a row with one
    # infinite end bounds only that variable, and one with two bounds none
    for _ in range(300):
        instance = random_instance(rng, with_atoms=False)
        box = Bounds({v: tuple(end if rng.random() < 0.6 else None for end in instance.bounds.interval(v)) for v in instance.vars})
        both(root(instance.constraints), box)
    # equally tight difference bounds from several rows: the first in row order certifies each side
    ties = [row_of([("x", a), ("y", -a)], rel, a * 2) for a in (1, 2, -3) for rel in (Relation.GE, Relation.LE)]
    both(root(ties), Bounds({"x": (0, 9), "y": (0, 9)}))
    assert calls >= 900


def test_propagation_detects_emptiness_between_fractional_bounds():
    # 2x <= 1 and 2x >= 1 leave no integer x
    rows = [
        LinConstraint(LinExpr.of([("x", 2)]), Relation.LE, 1),
        LinConstraint(LinExpr.of([("x", 2)]), Relation.GE, 1),
    ]
    sub = root(rows)
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
    sub = root(rows)
    res = propagate_bounds(sub, bounds)
    fixed = {eq for eq, _ in res.fixes}
    assert diff_equality("y", "z", 3) in fixed
    # x is pinned at 2, but its two unit rows already say so
    assert all(len(eq.lhs.terms) == 2 for eq in fixed)
    assert {x_lo, x_hi} <= rows_of(instance, sub)


def test_degenerate_beale_lp_reaches_its_exact_optimum():
    # Beale's example (scaled to integers), on which Dantzig's rule cycles
    rows = [
        LinConstraint(LinExpr.of([("x4", 1), ("x5", -32), ("x6", -4), ("x7", 36)]), Relation.LE, 0),
        LinConstraint(LinExpr.of([("x4", 1), ("x5", -24), ("x6", -1), ("x7", 6)]), Relation.LE, 0),
        LinConstraint(LinExpr.var("x6"), Relation.LE, 1),
    ]
    obj = LinExpr.of([("x4", -3), ("x5", 80), ("x6", -2), ("x7", 24)])
    sub = root(rows)
    bounds = Bounds({v: (0, None) for v in ("x4", "x5", "x6", "x7")})
    out = lp_solve(sub, obj, bounds)
    assert isinstance(out, LpOptimal)
    assert out.value == -5
    have = frozenset(assemble_rows(sub, bounds, obj))
    assert satisfies_all(have, out.x_star)
    check_lb_dual(LbDual(-5, out.dual), have, obj)


small_ints = st.integers(-4, 4)
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
    sx = _Simplex(LinExpr(), Bounds(), set())
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
    out0 = lp_solve(root([R1, R2]), WARM_OBJ, WARM_BOX)
    assert isinstance(out0, LpOptimal) and out0.value == Fraction(7, 2)
    # a cut, plus a tighter copy of R1; R1 stays, so the round only adds rows
    cut = row_of([("x", 1), ("y", 1)], Relation.GE, 4)
    sub1 = root([R1, R2, cut, row_of([("x", 2), ("y", 2)], Relation.GE, 9)])
    cold1 = lp_solve(sub1, WARM_OBJ, WARM_BOX)
    out1 = lp_solve(sub1, WARM_OBJ, WARM_BOX, out0)
    assert isinstance(out1, LpOptimal)
    assert out1.state is out0.state
    assert out1.value == 9 / Fraction(2) == cold1.value
    # the tighter copy only moves the bound of R1's slack column
    assert out1.pivots < cold1.pivots
    have = frozenset(assemble_rows(sub1, WARM_BOX, WARM_OBJ))
    assert R1 not in {row for row, _, _ in out1.dual}
    check_lb_dual(LbDual(5, out1.dual), have, WARM_OBJ)
    # a second round whose cut needs pivots on the same tableau
    sub2 = root([*sub1.cons, row_of([("x", 1), ("y", -2)], Relation.LE, 0)])
    cold2 = lp_solve(sub2, WARM_OBJ, WARM_BOX)
    out2 = lp_solve(sub2, WARM_OBJ, WARM_BOX, out1)
    assert isinstance(out2, LpOptimal) and out2.state is out0.state
    assert out2.value == cold2.value
    assert 0 < out2.pivots < cold2.pivots
    check_lb_dual(LbDual(5, out2.dual), frozenset(assemble_rows(sub2, WARM_BOX, WARM_OBJ)), WARM_OBJ)


@pytest.mark.parametrize("added", [row_of([("x", 1), ("y", -1)], Relation.EQ, 1)], ids=["equality_added"])
def test_cut_round_falls_back_to_a_cold_solve(added):
    # no round falls back to a cold solve: one that adds an equality over the
    # tableau's variables stays warm and matches a cold solve
    sub0 = root([R1, R2])
    sub1 = Subproblem(1, sub0.cons | {added})
    out0 = lp_solve(sub0, WARM_OBJ, WARM_BOX)
    assert isinstance(out0, LpOptimal)
    out = lp_solve(sub1, WARM_OBJ, WARM_BOX, out0)
    cold = lp_solve(sub1, WARM_OBJ, WARM_BOX)
    assert isinstance(out, LpOptimal) and out.state is out0.state
    # the same vertex and multipliers; a warm tableau may list them in another order
    assert (out.value, out.x_star) == (cold.value, cold.x_star)
    assert len(out.dual) == len(cold.dual) and set(out.dual) == set(cold.dual)
    have = frozenset(assemble_rows(sub1, WARM_BOX, WARM_OBJ))
    check_lb_dual(LbDual(frac_ceil(out.value), out.dual), have, WARM_OBJ)


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
    builds = []
    init = lp._Simplex.__init__

    def counting(self, *args):
        builds.append(self)
        init(self, *args)

    monkeypatch.setattr(lp._Simplex, "__init__", counting)
    sub = root([R1, R2])
    out = lp_solve(sub, WARM_OBJ, WARM_BOX)
    pivots = 0
    for added in ADDED_ROUNDS:
        sub = Subproblem(sub.ident + 1, sub.cons | frozenset(added))
        cold = lp_solve(sub, WARM_OBJ, WARM_BOX)
        prev, made = out, len(builds)
        # the round admits only its new rows to the previous tableau; it builds no new one
        out = lp_solve(sub, WARM_OBJ, WARM_BOX, prev)
        assert len(builds) == made
        assert isinstance(out, LpOptimal) and out.state is prev.state
        # the same vertex and multipliers; a warm tableau may list them in another order
        assert (out.value, out.x_star, set(out.dual)) == (cold.value, cold.x_star, set(cold.dual))
        have = frozenset(assemble_rows(sub, WARM_BOX, WARM_OBJ))
        check_lb_dual(LbDual(frac_ceil(out.value), out.dual), have, WARM_OBJ)
        pivots += out.pivots
    assert pivots > 0


@pytest.mark.parametrize("added", [LinConstraint(LinExpr.var("x"), Relation.EQ, 3)], ids=["added_equality"])
def test_the_same_rows_over_another_box_or_equalities_match_a_cold_solve(added):
    # an equality that pins a variable is one more row, merged warm
    sub0 = root([R1, R2])
    out0 = lp_solve(sub0, WARM_OBJ, WARM_BOX)
    sub1 = Subproblem(1, sub0.cons | {added})
    cold = lp_solve(sub1, WARM_OBJ, WARM_BOX)
    assert cold.value != out0.value
    out = lp_solve(sub1, WARM_OBJ, WARM_BOX, out0)
    assert out.state is out0.state
    # the same vertex and multipliers; a warm tableau may list them in another order
    assert (out.value, out.x_star, set(out.dual)) == (cold.value, cold.x_star, set(cold.dual))
    have = frozenset(assemble_rows(sub1, WARM_BOX, WARM_OBJ))
    check_lb_dual(LbDual(frac_ceil(out.value), out.dual), have, WARM_OBJ)


one_sided = st.sampled_from((Relation.GE, Relation.LE))


def exprs_over(names):
    return st.dictionaries(st.sampled_from(names), st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


warm_exprs = exprs_over("abc")


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
    sub = root(base)
    # a round adds rows, and only over the variables the base's tableau has
    known = sorted(set(obj.vars()).union(*(row.lhs.vars() for row in base)))
    out = lp_solve(sub, obj, box)
    for _ in range(3):
        if not isinstance(out, LpOptimal):
            break
        cons = set(sub.cons)
        for _ in range(data.draw(st.integers(0, 3))):
            cons.add(row_of(data.draw(exprs_over(known)), data.draw(one_sided), data.draw(st.integers(-6, 6))))
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
            bound = -(-out.value.numerator // out.value.denominator)
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
    sub, box, obj = root([lo_row, hi_row]), Bounds({"x": (0, 5)}), LinExpr.var("x")
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
    sub, box, obj = root(rows), Bounds(table), LinExpr.of(data.draw(warm_exprs))
    have = frozenset(assemble_rows(sub, box, obj))
    status, value = vertex_optimum(sub, obj, box)
    out = lp_solve(sub, obj, box)
    if status == "infeasible":
        assert isinstance(out, LpInfeasible)
        check_farkas(out.farkas, have)
    else:
        assert isinstance(out, LpOptimal) and out.value == value
        assert satisfies_all(have, out.x_star)
        check_lb_dual(LbDual(frac_ceil(value), out.dual), have, obj)


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
    sub, obj = root(PARKED + extra), LinExpr.of([("x", 1), ("y", 3)])
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
        assert satisfies_all(have, out.x_star)
        check_lb_dual(LbDual(frac_ceil(value), out.dual), have, obj)


def test_the_clause_encodings_root_lp_has_one_tableau_row_per_clause():
    # each clause brings a gate g >= 1 and four more rows, three of which
    # the box then implies
    clauses = random_cnf(random.Random(6), 6, 25)
    instance = encode_script(cnf_script(clauses, 6)).instance
    sub, obj, bounds = lp_parts(instance)
    assert len(slack_lhs(assemble_rows(sub, bounds, obj))) > 3 * len(clauses)
    out = lp_solve(sub, obj, bounds)
    assert 0 < out.tableau_rows <= len(clauses)
