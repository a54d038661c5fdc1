import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import native_reference
from imtsolver.model import Bounds, ImtError, ImtInstance, InterfaceAtom, LinConstraint, LinExpr, Relation
from imtsolver.native import ParseError, parse_expr, parse_instance, render_expr, render_instance

from gen import random_instance

# the most digits Python converts between an int and its text; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts ints of any length")


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
    # a quoted argument may hold a comma or a parenthesis
    odd_args = ImtInstance(
        ["a,b", "c)", "x", "r", "s"],
        Bounds({v: (0, 2) for v in ("a,b", "c)", "x", "r", "s")}),
        [],
        [InterfaceAtom.fun_def("r", "f", ["a,b"]), InterfaceAtom.fun_def("s", "g", ["c)", "x", "a,b"])],
        funs={"f": 1, "g": 3},
    )
    text = render_instance(odd_args)
    assert "r = f(|a,b|)" in text and "s = g(|c)|, x, |a,b|)" in text
    assert parse_instance(text) == odd_args


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


def test_an_empty_declared_interval_names_its_line():
    with pytest.raises(ParseError) as err:
        parse_instance("[vars]\ny int 0 1\nx int 5 3")
    assert str(err.value) == "line 3: empty declared interval for x: [5, 3]"


def test_feasibility_document_omits_objective():
    inst = parse_instance("[vars]\nx int 0 3\n[constraints]\nx >= 1")
    assert inst.objective.is_zero()


def test_unannotated_equality_atom():
    inst = parse_instance("[vars]\nx int 0 3\ny int 0 3\n[atoms]\n(x = y)")
    (atom,) = inst.atoms
    assert atom.kind == "eq" and atom.annotation is None


def test_a_coefficient_is_a_run_of_decimal_digits():
    # a digit-like sign that is no decimal digit is no coefficient, so it is read as a name and fails
    with pytest.raises(ParseError) as err:
        parse_instance("[vars]\nx int 0 1\n[constraints]\n\u00b2 x <= 1")
    assert str(err.value) == "line 4: expected a variable name in '\u00b2 x'"
    # a decimal digit of another script is a coefficient
    inst = parse_instance("[vars]\nx int 0 1\n[constraints]\n\u0663 x <= 1")
    assert inst.constraints == {LinConstraint(LinExpr.var("x", 3), Relation.LE, 1)}


@needs_digit_limit
@pytest.mark.parametrize(
    "text, lineno",
    [
        ("[vars]\nx int 0 {big}", 2),
        ("[vars]\nx int -{big} *", 2),
        ("[vars]\nx int 0 1\n[constraints]\n{big} x <= 1", 4),
        ("[vars]\nx int 0 1\n[constraints]\nx <= -{big}", 4),
        ("[vars]\nx int 0 1\n[objective]\nmin {big} x", 4),
        ("[funs]\nf {big}", 2),
    ],
    ids=["bound", "negative_bound", "coefficient", "constant", "objective", "arity"],
)
def test_an_integer_over_the_digit_limit_is_an_error_on_its_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_instance(text.format(big="9" * (DIGIT_LIMIT + 700)))
    assert str(err.value).startswith(f"line {lineno}: integer literal too long: ")


@needs_digit_limit
def test_a_coefficient_summed_past_the_digit_limit_is_an_error():
    widest = "9" * DIGIT_LIMIT
    with pytest.raises(ParseError, match="^a number is too long to print: "):
        parse_instance(f"[vars]\nx int 0 1\n[constraints]\n{widest} x + {widest} x >= 1")


EXPR_PIECES = ["x", "y1", "|a b|", "|", "+", "-", "*", "2", "0", "13", " ", "\t", ".", "\u00b2", "\u0663"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(EXPR_PIECES), max_size=8).map("".join))
def test_an_expression_reads_as_the_reference_reads_it(text):
    def outcome(parse):
        try:
            return parse(text)
        except ParseError as exc:
            return str(exc)

    assert outcome(parse_expr) == outcome(native_reference.parse_expr)


# texts the one-pass parser and the reference must read alike: rendered random
# instances, with comments, blank lines and pipe-quoted names spliced in
QUOTED = ["|{}|", "|{} #1|", "|{}, ()|", "|{} @ 2|"]
COMMENTS = ["", "  # note", "#", " # |x0| <= 3", "\t# [vars]"]
MUTATION_CHARS = list(" \t#|+-*<=>()[],@0123456789xyf_") + ["\u00a0", "\u00b2", "\u0663", "\x0c"]


@st.composite
def instance_texts(draw):
    text = render_instance(random_instance(random.Random(draw(st.integers(0, 2**32 - 1)))))
    spelled = {}

    def spell(m):
        name = m.group()
        if name not in spelled:
            spelled[name] = draw(st.sampled_from([name] + QUOTED)).format(name)
        return spelled[name]

    text = re.sub(r"\b[xf]\d\b", spell, text)
    lines = []
    for line in text.splitlines():
        lines += [" " * draw(st.integers(0, 2)) + line + draw(st.sampled_from(COMMENTS))]
        lines += [draw(st.sampled_from(["", "   ", "# only a comment"]))] * draw(st.integers(0, 1))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text).canonical_text()
    except ImtError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(instance_texts())
def test_the_parser_reads_an_instance_as_the_reference_does(text):
    expected = _outcome(native_reference.parse_instance, text)
    assert isinstance(expected, str), expected
    assert _outcome(parse_instance, text) == expected


@settings(max_examples=300, deadline=None)
@given(instance_texts(), st.data())
def test_the_parser_fails_as_the_reference_does_on_a_mutated_line(text, data):
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = data.draw(st.sampled_from(["delete", "insert", "replace", "drop", "duplicate"]))
    if kind in ("drop", "duplicate"):
        lines[i : i + 1] = [] if kind == "drop" else [line, line]
    else:
        at = data.draw(st.integers(0, len(line)))
        char = data.draw(st.sampled_from(MUTATION_CHARS))
        cut = at + (kind != "insert")
        lines[i] = line[:at] + (char if kind != "delete" else "") + line[cut:]
    mutated = "\n".join(lines)
    assert _outcome(parse_instance, mutated) == _outcome(native_reference.parse_instance, mutated)
