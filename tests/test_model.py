import hashlib
import pytest
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from gen import iter_box
from imtsolver.model import (
    Bounds,
    ImtInstance,
    Incumbent,
    InterfaceAtom,
    InvariantError,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    diff_equality,
    frac_ceil,
    frac_floor,
    normalize,
    obj_value,
    satisfies,
)

names = st.sampled_from(["x", "y", "z", "w"])
exprs = st.dictionaries(names, st.integers(-9, 9), max_size=4).map(
    lambda d: LinExpr.of(d.items())
)


@given(exprs, exprs)
def test_expr_addition_matches_pointwise_eval(a, b):
    point = {v: 3 for v in ("x", "y", "z", "w")}
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)


@given(exprs)
def test_expr_negation_cancels(e):
    assert (e + (-e)).is_zero()


@given(exprs, st.integers(-5, 5))
def test_expr_scale(e, k):
    point = {v: -2 for v in ("x", "y", "z", "w")}
    assert e.scale(k).eval(point) == k * e.eval(point)


def test_expr_drops_zero_coefficients():
    e = LinExpr.of([("x", 2), ("y", 0)])
    assert set(e.vars()) == {"x"}
    assert e.coeff("y") == 0


@given(st.fractions(min_value=-50, max_value=50))
def test_frac_floor_ceil(q):
    assert frac_floor(q) <= q <= frac_ceil(q)
    assert q - frac_floor(q) < 1
    assert frac_ceil(q) - q < 1


def test_normalize_strict_relations():
    e = LinExpr.var("x")
    assert normalize(LinConstraint(e, Relation.LT, 4)) == LinConstraint(e, Relation.LE, 3)
    assert normalize(LinConstraint(e, Relation.GT, 4)) == LinConstraint(e, Relation.GE, 5)
    le = LinConstraint(e, Relation.LE, 4)
    assert normalize(le) is le


@given(st.integers(-4, 4), st.integers(-8, 8))
def test_strict_normalization_agrees_on_integers(x, rhs):
    point = {"x": x}
    strict = LinConstraint(LinExpr.var("x"), Relation.LT, rhs)
    assert satisfies(strict, point) == satisfies(normalize(strict), point)


def test_sentinel_is_unsatisfiable():
    # 0 <= -1, the normalized 0 < 0: a row without variables that no point satisfies
    assert not satisfies(LinConstraint(LinExpr.zero(), Relation.LE, -1), {})


def test_diff_equality_orients_lexicographically():
    eq = diff_equality("y", "x", 3)
    assert eq == LinConstraint(LinExpr.of({"x": 1, "y": -1}), Relation.EQ, -3)
    assert diff_equality("x", "y", 3) == diff_equality("y", "x", -3)
    with pytest.raises(InvariantError):
        diff_equality("x", "x", 0)


def test_diff_equality_holds_exactly_at_its_difference():
    eq = diff_equality("x", "y", 5)
    assert satisfies(eq, {"x": 7, "y": 2})
    assert not satisfies(eq, {"x": 7, "y": 3})


def test_bounds_reject_empty_interval():
    with pytest.raises(InvariantError):
        Bounds({"x": (1, 0)})


def test_bounds_volume_and_box():
    b = Bounds({"x": (0, 2), "y": (1, 1)})
    assert b.volume(["x", "y"]) == 3
    assert len(list(iter_box(b, ["x", "y"]))) == 3
    assert Bounds({"x": (0, None)}).volume(["x"]) is None


def test_bounds_filled():
    b = Bounds({"x": (None, 4)}).filled(["x", "y"], 7)
    assert b.interval("x") == (-7, 4)
    assert b.interval("y") == (-7, 7)


def test_obj_value_ordering_and_render():
    assert ObjValue.neg_inf() < ObjValue.finite(-100) < ObjValue.finite(0) < ObjValue.pos_inf()
    assert ObjValue.finite(3).render() == "3"
    assert ObjValue.neg_inf().render() == "-inf"
    assert ObjValue.pos_inf().render() == "+inf"


def test_obj_value_of_incumbents():
    obj = LinExpr.of([("x", 2)])
    assert obj_value(obj, Incumbent.none()) == ObjValue.pos_inf()
    assert obj_value(obj, Incumbent.feasible({"x": 4})) == ObjValue.finite(8)
    assert obj_value(obj, Incumbent.unbounded({"x": 0})) == ObjValue.neg_inf()


def test_instance_validation():
    e = LinExpr.var("x")
    with pytest.raises(InvariantError):
        ImtInstance(["x"], Bounds({}), [LinConstraint(LinExpr.var("q"), Relation.LE, 1)])
    with pytest.raises(InvariantError):
        # annotation must be a 0..1 variable
        ImtInstance(
            ["x", "y", "b"],
            Bounds({"b": (0, 2)}),
            [],
            [InterfaceAtom.eq_atom("x", "y", "b")],
        )
    with pytest.raises(InvariantError):
        # arity mismatch
        ImtInstance(
            ["x", "y"],
            Bounds({}),
            [],
            [InterfaceAtom.fun_def("y", "f", ["x", "x"])],
            e,
            {"f": 1},
        )
    with pytest.raises(InvariantError):
        # name collision between variable and function
        ImtInstance(["f", "x"], Bounds({}), [], [], e, {"f": 1})


def test_instance_digest_ignores_declaration_order():
    rows = [
        LinConstraint(LinExpr.of([("x", 1), ("y", 2)]), Relation.LE, 5),
        LinConstraint(LinExpr.var("x"), Relation.GE, 0),
    ]
    a = ImtInstance(["x", "y"], Bounds({"x": (0, 5), "y": (0, 5)}), rows)
    b = ImtInstance(["y", "x"], Bounds({"y": (0, 5), "x": (0, 5)}), list(reversed(rows)))
    assert a == b
    assert a.digest() == b.digest()


def test_satisfies_exact_on_fractions():
    c = LinConstraint(LinExpr.of([("x", 3)]), Relation.LE, 1)
    assert satisfies(c, {"x": Fraction(1, 3)})
    assert not satisfies(c, {"x": Fraction(1, 3) + Fraction(1, 10**12)})


term_lists = st.lists(st.tuples(names, st.integers(-9, 9)), max_size=5)


@given(term_lists)
def test_expressions_built_three_ways_are_one_row(terms):
    acc = {}
    for v, c in terms:
        acc[v] = acc.get(v, 0) + c
    from_list = LinExpr.of(terms)
    from_dict = LinExpr.of(acc)
    from_sum = sum((LinExpr.var(v, c) for v, c in terms), LinExpr.zero())
    for e in (from_dict, from_sum):
        assert e == from_list and hash(e) == hash(from_list)
        assert e in frozenset({from_list}) and from_list in frozenset({e})
    rows = [LinConstraint(e, Relation.LE, 3) for e in (from_list, from_dict, from_sum)]
    assert len(frozenset(rows)) == 1
    assert all(r in frozenset(rows[i:i + 1]) for r in rows for i in range(3))
    # the cached hash is the one the fields give
    assert hash(from_list) == hash((from_list.terms,))
    assert hash(rows[0]) == hash((from_list, Relation.LE, 3))


def test_var_builds_a_single_term():
    assert LinExpr.var("x") == LinExpr.of({"x": 1}) == LinExpr.of([("x", 1)])
    assert LinExpr.var("x", -3).terms == (("x", -3),)
    assert LinExpr.var("x", 0) == LinExpr.zero()
    assert hash(LinExpr.var("x", 0)) == hash(LinExpr.zero())


def test_instance_box_rows_and_digest_are_its_own():
    a = ImtInstance(["x", "y"], Bounds({"x": (0, 5), "y": (None, 2)}), [])
    b = ImtInstance(["x", "y"], Bounds({"x": (0, 3), "y": (None, 2)}), [])
    assert a.box_rows == tuple(a.bounds.rows(a.vars))
    assert b.box_rows == tuple(b.bounds.rows(b.vars))
    assert a.bounds.row_hi("x") in a.box_rows and a.bounds.row_hi("x") not in b.box_rows
    assert a.box_rows is a.box_rows  # built once
    assert a.box_set == frozenset(a.box_rows) and a.box_set is a.box_set
    assert a.digest() != b.digest()
    assert a.digest() == hashlib.sha256(a.canonical_text().encode()).hexdigest()



@given(term_lists, st.sampled_from(Relation), st.integers(-9, 9))
def test_a_rows_text_is_rendered_once_and_not_compared(terms, rel, rhs):
    a = LinConstraint(LinExpr.of(terms), rel, rhs)
    b = LinConstraint(LinExpr.of(terms), rel, rhs)
    text = a.render()
    assert a.render() is text
    assert text == f"{a.lhs.render()} {rel.value} {rhs}"
    assert a == b and hash(a) == hash(b) and b in {a}


def test_canonical_text_sorts_constraints_and_atoms_by_their_text():
    rows = [
        LinConstraint(LinExpr.of([("y", 1), ("x", -2)]), Relation.LE, 5),
        LinConstraint(LinExpr.var("x"), Relation.GE, 1),
        LinConstraint(LinExpr.var("x", 3), Relation.EQ, 3),
    ]
    atoms = [InterfaceAtom.eq_atom("x", "y"), InterfaceAtom.fun_def("y", "f", ["x"])]
    inst = ImtInstance(["x", "y"], Bounds({}), rows, atoms, funs={"f": 1})
    lines = inst.canonical_text().splitlines()
    by_text = sorted(rows, key=lambda r: r.render())
    assert [l for l in lines if l.startswith("con ")] == [f"con {r.render()}" for r in by_text]
    by_text = sorted(atoms, key=lambda a: a.render())
    assert [l for l in lines if l.startswith("atom ")] == [f"atom {a.render()}" for a in by_text]


def test_canonical_rows_order_the_constraints_by_text_then_the_other_box_rows():
    # "2 x" (a name holding a space) and 2 times "x" render alike, so their terms decide
    spaced = LinConstraint(LinExpr.var("2 x"), Relation.LE, 3)
    doubled = LinConstraint(LinExpr.var("x", 2), Relation.LE, 3)
    x_ge_0 = LinConstraint(LinExpr.var("x"), Relation.GE, 0)
    assert spaced.render() == doubled.render() == "2 x <= 3"
    for order in ([doubled, spaced, x_ge_0], [x_ge_0, spaced, doubled]):
        inst = ImtInstance(["x", "2 x"], Bounds({"x": (0, 4)}), order)
        x_le_4 = inst.bounds.row_hi("x")
        # x >= 0 is a constraint and a box row, and has one place
        assert inst.canonical_rows == (spaced, doubled, x_ge_0, x_le_4)
        assert inst.canonical_rows is inst.canonical_rows  # built once
        assert inst.row_numbers == {r: i for i, r in enumerate(inst.canonical_rows)}
        assert inst.row_numbers is inst.row_numbers
        assert [l for l in inst.canonical_text().splitlines() if l.startswith("con ")] == [
            "con 2 x <= 3",
            "con 2 x <= 3",
            "con x >= 0",
        ]
