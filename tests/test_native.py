import random

import pytest

from imtsolver.model import Bounds, ImtError, ImtInstance, InterfaceAtom, LinConstraint, LinExpr, Relation
from imtsolver.native import ParseError, parse_expr, parse_instance, render_expr, render_instance

from gen import random_instance


def test_parse_sectioned_document():
    text = """
    # seating toy
    [vars]
    x int 0 10
    y int * 5
    b int 0 1
    r int -3 3

    [funs]
    f 1

    [objective]
    min 2 x - y

    [constraints]
    x + 2 y <= 7     # tight in the optimum
    x - y > -4
    0 = 0

    [atoms]
    r = f(x)
    (x = y) @ b
    """
    inst = parse_instance(text)
    assert inst.vars == frozenset({"x", "y", "b", "r"})
    assert inst.bounds.interval("y") == (None, 5)
    assert inst.funs == {"f": 1}
    assert inst.objective == LinExpr.of([("x", 2), ("y", -1)])
    # strict relation was normalized at construction
    assert LinConstraint(LinExpr.of([("x", 1), ("y", -1)]), Relation.GE, -3) in inst.constraints
    assert InterfaceAtom.fun_def("r", "f", ["x"]) in inst.atoms
    assert InterfaceAtom.eq_atom("x", "y", "b") in inst.atoms


def test_round_trip_on_random_instances():
    rng = random.Random(31)
    for _ in range(150):
        inst = random_instance(rng)
        text = render_instance(inst)
        assert parse_instance(text) == inst


def test_round_trip_preserves_odd_names():
    inst = ImtInstance(
        ["weird name", "a#b", "x"],
        Bounds({"weird name": (0, 2), "a#b": (0, 1), "x": (0, 2)}),
        [LinConstraint(LinExpr.of([("weird name", 2), ("x", -1), ("a#b", 1)]), Relation.LE, 3)],
        objective=LinExpr.var("weird name"),
    )
    text = render_instance(inst)
    assert "|weird name|" in text and "|a#b| int 0 1" in text
    assert parse_instance(text) == inst
    # a '#' inside a quoted name is part of the name; after it, a comment starts
    assert parse_instance(text.replace("|a#b| int 0 1", "|a#b| int 0 1  # a flag")) == inst
    with pytest.raises(ImtError, match="no native line can spell"):
        render_instance(ImtInstance(["a|b"], Bounds({"a|b": (0, 1)}), []))


def test_expr_forms():
    assert parse_expr("0").is_zero()
    assert parse_expr("- x") == LinExpr.of([("x", -1)])
    assert parse_expr("3x + 2 * y") == LinExpr.of([("x", 3), ("y", 2)])
    assert parse_expr("x - 4 y + x") == LinExpr.of([("x", 2), ("y", -4)])
    assert render_expr(LinExpr.zero()) == "0"
    assert render_expr(LinExpr.of([("x", -1), ("y", 3)])) == "- x + 3 y"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x int 0 5", "before any section"),
        ("[vars]\nx int 5 what", "variable declaration"),
        ("[vars]\nx int 0 5\nx int 0 5", "declared twice"),
        ("[vars]\nx int 3 1", "empty"),
        ("[vars]\n[vars]", "twice"),
        ("[objective]\nmax x", "start with 'min'"),
        ("[objective]\nmin x\nmin x", "second objective"),
        ("[constraints]\nx <= y", "cannot parse constraint"),
        ("[atoms]\nr = f(x", "cannot parse atom"),
        ("[vars]\nx int 0 5\n[constraints]\nx + <= 3", "dangling sign"),
        ("[bogus]", "before any section"),
    ],
)
def test_parse_errors_are_located(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_error_messages_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("[vars]\nx int 0 5\nbroken line here")
    assert "line 3" in str(err.value)


def test_feasibility_document_omits_objective():
    inst = parse_instance("[vars]\nx int 0 3\n[constraints]\nx >= 1")
    assert inst.objective.is_zero()


def test_unannotated_equality_atom():
    inst = parse_instance("[vars]\nx int 0 3\ny int 0 3\n[atoms]\n(x = y)")
    (atom,) = inst.atoms
    assert atom.kind == "eq" and atom.annotation is None
