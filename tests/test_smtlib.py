import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imtsolver.engine import solve
from imtsolver.model import LinExpr, ObjValue, Relation, satisfies_all
from imtsolver.oracle import brute_force_solve
from imtsolver.smtlib import (
    MAX_DEPTH,
    SmtError,
    UnboundedForEncoding,
    encode_script,
    parse_sexps,
    tokenize,
)
from tokenize_reference import tokenize as loop_tokenize


def bounds_prelude(table):
    lines = []
    for v, (lo, hi) in table.items():
        lines.append(f"(declare-const {v} Int)")
        lines.append(f"(assert (>= {v} {lo}))" if lo >= 0 else f"(assert (>= {v} (- {abs(lo)})))")
        lines.append(f"(assert (<= {v} {hi}))")
    return "\n".join(lines)


# --- surface ---------------------------------------------------------------


def test_tokenizer_handles_comments_pipes_and_strings():
    text = '(assert |odd name|) ; trailing\n(echo "a ""quoted"" word")'
    toks = tokenize(text)
    assert "|odd name|" in toks
    assert toks.count("(") == 2
    forms = parse_sexps(text)
    assert forms[0][0] == "assert"


# \x0b and the no-break space are symbol characters, not whitespace
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=' \t\r\n();|"ab1-\x0b\u00a0', max_size=40))
def test_tokenize_matches_the_character_loop(text):
    try:
        expected = loop_tokenize(text)
    except SmtError as exc:
        with pytest.raises(SmtError, match=re.escape(str(exc))):
            tokenize(text)
    else:
        assert tokenize(text) == expected


def test_parse_sexps_nesting_cap():
    at_cap = "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH
    form = parse_sexps(at_cap)[0]
    for _ in range(MAX_DEPTH - 1):
        (form,) = form
    assert form == ["p"]
    with pytest.raises(SmtError, match="nested deeper"):
        parse_sexps("(" + at_cap + ")")
    with pytest.raises(SmtError, match="unbalanced"):
        parse_sexps("(a b))")
    with pytest.raises(SmtError, match="missing closing"):
        parse_sexps("(a (b c)")
    assert parse_sexps("a (b (c) d) e") == ["a", ["b", ["c"], "d"], "e"]


def _max_nesting(text: str) -> int:
    depth = deepest = 0
    for tok in tokenize(text):
        depth += {"(": 1, ")": -1}.get(tok, 0)
        deepest = max(deepest, depth)
    return deepest


@pytest.mark.parametrize(
    "wrap, leaf, outer",
    [
        ("(not {})", "p", "{}"),  # one encoder frame per level
        ("(or q {})", "p", "{}"),  # two frames per level
        ("(f {})", "x", "(or p (= {} 0))"),  # nested applications: the deepest recursion per level
    ],
)
def test_encoding_at_the_nesting_cap_does_not_overflow(wrap, leaf, outer):
    prelude = "(declare-fun f (Int) Int) (declare-const x Int) (declare-const p Bool) (declare-const q Bool)"

    def script(term):
        return f"{prelude} (assert {outer.format(term)})"

    term = leaf
    while _max_nesting(script(wrap.format(term))) <= MAX_DEPTH:
        term = wrap.format(term)
    assert _max_nesting(script(term)) == MAX_DEPTH
    enc = encode_script(script(term), default_bound=4)
    assert enc.instance.vars


def test_unsupported_command_is_rejected():
    with pytest.raises(SmtError):
        encode_script("(push 1)")


def test_declarations_and_sorts():
    enc = encode_script(
        """
        (declare-const x Int)
        (declare-const p Bool)
        (declare-fun f (Int) Int)
        (assert (>= x 0)) (assert (<= x 4))
        (assert p)
        (check-sat)
        """
    )
    assert enc.declared == {"x": "Int", "p": "Bool"}
    assert enc.instance.funs == {"f": 1}
    assert not enc.wants_model
    assert enc.instance.bounds.interval("p") == (0, 1)


@pytest.mark.parametrize("logic", ["", "QF_UFLIA", "(QF_LIA)"])
def test_set_logic_is_ignored(logic):
    enc = encode_script(f"(set-logic {logic}) (declare-const x Int) (assert (>= x 2)) (minimize x)")
    assert enc.instance == encode_script("(declare-const x Int) (assert (>= x 2)) (minimize x)").instance


@pytest.mark.parametrize(
    "script",
    [
        "(declare-const x Int) (assert x)",  # Int asserted as Bool
        "(declare-const p Bool) (minimize p)",
        "(declare-fun f (Int) Int) (declare-const x Int) (assert (= (f x x) 0))",
        "(assert (= nosuch 0))",
        "(declare-const x Int) (declare-const x Int)",
        "(declare-fun g (Bool) Int) (assert true)",  # Bool argument sorts unsupported
        "(declare-const x Int) (declare-const y Int) (assert (= (* x y) 2))",
        "(declare-const x Int) (minimize x) (maximize x)",
        "(declare-const x Int) (minimize (-))",
        "(declare-const x Int) (assert (<= (-) 1))",
        # a list where a declaration wants a symbol
        "(declare-const (x) Int)",
        "(declare-fun (f) (Int) Int)",
        "(declare-fun f ((Int)) Int)",
        "(declare-fun f (()) Int)",
    ],
)
def test_sort_and_shape_errors(script):
    with pytest.raises(SmtError):
        encode_script(script)


# the most digits Python converts between an int and its text; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts ints of any length")
@pytest.mark.parametrize(
    "script, message",
    [
        ("(assert (>= x {big}))", "numeral too long: "),
        ("(assert (<= (- {big}) x))", "numeral too long: "),
        ("(assert (>= (+ x {big}) 1))", "numeral too long: "),
        ("(assert (>= (* {half} {half} x) 1))", "a number is too long to print: "),
        ("(assert (<= x 1)) (assert (>= x 0)) (minimize (* {half} {half} x))",
         "a number is too long to print: "),
    ],
    ids=["bound", "negated_bound", "constant", "product", "objective_product"],
)
def test_a_number_over_the_digit_limit_is_an_error(script, message):
    big, half = "9" * (DIGIT_LIMIT + 700), "9" * (DIGIT_LIMIT - 1300)
    with pytest.raises(SmtError, match=f"^{message}"):
        encode_script("(declare-const x Int) " + script.format(big=big, half=half))


def test_indicator_rows_follow_the_box():
    # for x in [0,5], flag v for (<= x 2) is tied by x+3v <= 5 and x+3v >= 3
    enc = encode_script(
        """
        (declare-const x Int)
        (assert (>= x 0)) (assert (<= x 5))
        (declare-const p Bool)
        (assert (or p (<= x 2)))
        """
    )
    pairs = []
    for row in enc.instance.constraints:
        terms = dict(row.lhs.terms)
        if set(terms) >= {"x"} and len(terms) == 2 and terms.get("x") == 1:
            (v,) = [name for name in terms if name != "x"]
            if terms[v] == 3:
                pairs.append((row.rel, row.rhs, v))
    les = {(rel, rhs) for rel, rhs, _ in pairs if rel is Relation.LE}
    ges = {(rel, rhs) for rel, rhs, _ in pairs if rel is Relation.GE}
    assert (Relation.LE, 5) in les and (Relation.GE, 3) in ges
    assert len({v for _, _, v in pairs}) == 1  # one shared indicator


def test_repeated_comparisons_share_one_indicator():
    enc = encode_script(
        """
        (declare-const x Int) (assert (>= x 0)) (assert (<= x 9))
        (declare-const p Bool) (declare-const q Bool)
        (assert (or p (<= x 3)))
        (assert (or q (<= x 3)))
        """
    )
    flags = {v for v in enc.instance.vars if v.startswith("$")}
    # one comparison flag plus two or-gate helpers at most
    assert len(flags) <= 3


def test_uf_applications_share_atoms_by_argument_tuple():
    enc = encode_script(
        """
        (set-logic QF_UFLIA)
        (declare-fun f (Int) Int)
        (declare-const x Int) (declare-const y Int)
        (assert (>= x 0)) (assert (<= x 3))
        (assert (>= y 0)) (assert (<= y 3))
        (assert (>= (+ (f x) (f x)) 0))
        (assert (>= (f y) 0))
        """
    )
    fun_atoms = [a for a in enc.instance.atoms if a.kind == "fun"]
    assert len(fun_atoms) == 2  # (f x) deduplicated, (f y) separate
    assert all(a.annotation is None for a in fun_atoms)


def test_equalities_become_annotated_atoms():
    enc = encode_script(
        """
        (declare-const x Int) (declare-const y Int)
        (assert (>= x 0)) (assert (<= x 3))
        (assert (>= y 0)) (assert (<= y 3))
        (declare-const p Bool)
        (assert (or p (= x y)))
        (assert (not (= x y)))
        """
    )
    eqs = [a for a in enc.instance.atoms if a.kind == "eq"]
    assert eqs and all(a.annotation is not None for a in eqs)
    # the toplevel disequality pins one annotation to 0
    pinned = [
        row
        for row in enc.instance.constraints
        if len(row.lhs.terms) == 1
        and row.lhs.terms[0][0] in {a.annotation for a in eqs}
        and row.rel is Relation.LE
        and row.rhs == 0
    ]
    assert pinned


def test_default_bound_fills_only_consulted_variables():
    script = """
        (set-logic QF_UFLIA)
        (declare-fun f (Int) Int)
        (declare-const x Int)
        (declare-const p Bool)
        (assert (or p (<= x 2)))
        (assert (>= (f x) 0))
    """
    with pytest.raises(UnboundedForEncoding):
        encode_script(script)
    enc = encode_script(script, default_bound=8)
    assert enc.instance.bounds.interval("x") == (-8, 8)
    # the application result variable was never box-consulted
    (atom,) = [a for a in enc.instance.atoms if a.kind == "fun"]
    assert enc.instance.bounds.interval(atom.result) == (None, None)


@pytest.mark.parametrize(
    "script",
    [
        "(declare-const x Int) (assert (>= x 0)) (assert (<= x 3)) (minimize (+ x 2))",
        # an objective may name a symbol declared after it, as an assert may
        "(minimize (+ x 2)) (declare-const x Int) (assert (>= x 0)) (assert (<= x 3))",
    ],
    ids=["declared-first", "declared-later"],
)
def test_an_affine_objective_sees_the_asserted_box(script):
    enc = encode_script(script)
    ((obj, mult),) = enc.instance.objective.terms
    assert mult == 1 and enc.instance.bounds.interval(obj) == (2, 5)
    oracle = brute_force_solve(enc.instance)
    assert (oracle.status, oracle.value) == ("optimal", 2)
    res = solve(enc.instance)
    assert (res.status, res.value) == ("optimal", ObjValue.finite(2))


def test_maximize_negates_the_objective():
    enc = encode_script(
        """
        (declare-const x Int) (assert (>= x 0)) (assert (<= x 9))
        (maximize (+ x 1))
        """
    )
    assert enc.has_objective and enc.negated_objective
    obj = enc.instance.objective
    if obj.coeff("x"):
        assert obj.coeff("x") == -1
    else:
        # affine objectives route through a fresh defined variable
        (aux, mult), = obj.terms
        assert mult == 1
        defs = [
            row
            for row in enc.instance.constraints
            if row.rel is Relation.EQ and dict(row.lhs.terms).get(aux)
        ]
        assert defs, "no defining row for the objective variable"
        terms = dict(defs[0].lhs.terms)
        # aux = -(x + 1); up to row orientation the x/aux coefficients agree
        assert terms[aux] * terms["x"] == 1


def test_model_lines_render_bools():
    enc = encode_script(
        "(declare-const x Int) (declare-const p Bool) (assert (>= x 1)) (assert (<= x 1)) (assert p) (get-model)"
    )
    assert enc.wants_model
    lines = enc.model_lines({"x": 1, "p": 1})
    assert "(p true)" in lines and "(x 1)" in lines


# --- faithfulness ----------------------------------------------------------


def lit(n: int):
    return str(n) if n >= 0 else ["-", str(-n)]


def eval_term(term, env):
    """Reference semantics for the generator's fragment."""
    if isinstance(term, str):
        if term == "true":
            return True
        if term == "false":
            return False
        if term.isdigit():
            return int(term)
        return env[term]
    head = term[0]
    args = term[1:]
    if head == "+":
        return sum(eval_term(a, env) for a in args)
    if head == "-":
        if len(args) == 1:
            return -eval_term(args[0], env)
        first = eval_term(args[0], env)
        return first - sum(eval_term(a, env) for a in args[1:])
    if head == "*":
        out = 1
        for a in args:
            out *= eval_term(a, env)
        return out
    if head == "<=":
        return eval_term(args[0], env) <= eval_term(args[1], env)
    if head == "<":
        return eval_term(args[0], env) < eval_term(args[1], env)
    if head == ">=":
        return eval_term(args[0], env) >= eval_term(args[1], env)
    if head == ">":
        return eval_term(args[0], env) > eval_term(args[1], env)
    if head == "=":
        return eval_term(args[0], env) == eval_term(args[1], env)
    if head == "not":
        return not eval_term(args[0], env)
    if head == "and":
        return all(eval_term(a, env) for a in args)
    if head == "or":
        return any(eval_term(a, env) for a in args)
    if head == "=>":
        return (not eval_term(args[0], env)) or eval_term(args[1], env)
    if head == "xor":
        return eval_term(args[0], env) != eval_term(args[1], env)
    if head == "ite":
        return eval_term(args[1] if eval_term(args[0], env) else args[2], env)
    raise AssertionError(f"evaluator gap: {head}")


def random_bool_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["cmp", "cmp", "eq"])
        a, b = rng.choice(names), rng.choice(names)
        if kind == "cmp":
            op = rng.choice(["<=", "<", ">=", ">"])
            if rng.random() < 0.5:
                return [op, a, lit(rng.randint(-2, 4))]
            return [op, ["+", a, b], lit(rng.randint(-2, 6))]
        return ["=", a, b]
    op = rng.choice(["not", "and", "or", "=>", "xor", "ite"])
    if op == "not":
        return ["not", random_bool_term(rng, names, depth - 1)]
    if op == "ite":
        return [
            "ite",
            random_bool_term(rng, names, depth - 1),
            random_bool_term(rng, names, depth - 1),
            random_bool_term(rng, names, depth - 1),
        ]
    n = 2 if op in ("=>", "xor") else rng.randint(2, 3)
    return [op] + [random_bool_term(rng, names, depth - 1) for _ in range(n)]


def render(term):
    if isinstance(term, str):
        return term
    return "(" + " ".join(render(a) for a in term) + ")"


def test_encoding_is_faithful_on_enumerable_formulas():
    """In-box point satisfies the source formula iff it extends into the encoding."""
    rng = random.Random(2024)
    table = {"x": (0, 2), "y": (-1, 2), "z": (0, 1)}
    names = list(table)
    checked = 0
    for _ in range(40):
        term = random_bool_term(rng, names, rng.randint(1, 2))
        script = bounds_prelude(table) + f"\n(assert {render(term)})\n(check-sat)"
        enc = encode_script(script)
        if enc.instance.bounds.volume(enc.instance.vars) > 40_000:
            continue
        checked += 1
        for point in iter_points(table):
            want = eval_term(term, point)
            got = extends(enc.instance, point, names)
            assert want == got, f"{render(term)} at {point}"
    assert checked >= 30


def iter_points(table):
    names = sorted(table)

    def rec(i, acc):
        if i == len(names):
            yield dict(acc)
            return
        v = names[i]
        lo, hi = table[v]
        for val in range(lo, hi + 1):
            yield from rec(i + 1, acc + [(v, val)])

    yield from rec(0, [])


def extends(instance, point, names):
    """Is there an in-box completion once the source variables are pinned?

    Pins are equality rows, not interval rewrites: the encoder may have
    folded asserted comparisons into the bounds table, and those must keep
    counting against points outside them.
    """
    from imtsolver.model import ImtInstance, LinConstraint

    pins = frozenset(
        LinConstraint(LinExpr.var(v), Relation.EQ, point[v]) for v in names
    )
    pinned = ImtInstance(
        instance.vars,
        instance.bounds,
        instance.constraints | pins,
        instance.atoms,
        instance.objective,
        instance.funs,
    )
    return brute_force_solve(pinned).status == "optimal"


def test_int_ite_branches_match_reference():
    table = {"x": (0, 2), "p": None}
    script = """
        (declare-const x Int) (assert (>= x 0)) (assert (<= x 2))
        (declare-const p Bool)
        (assert (= (ite p (+ x 1) (- x 1)) 1))
    """
    enc = encode_script(script)
    sat_points = set()
    for x in range(0, 3):
        for p in (False, True):
            want = (x + 1 if p else x - 1) == 1
            got = extends(enc.instance, {"x": x, "p": int(p)}, ["x", "p"])
            assert want == got
            if want:
                sat_points.add((x, p))
    assert sat_points == {(0, True), (2, False)}


def test_prescan_absorbs_bounds_nested_in_and():
    enc = encode_script(
        """
        (declare-const x Int)
        (assert (and (>= x (- 3)) (<= x 7)))
        (assert (<= (* 2 x) 9))
        """
    )
    assert enc.instance.bounds.interval("x") == (-3, 7)


def test_distinct():
    script = """
        (declare-const x Int) (declare-const y Int)
        (assert (>= x 0)) (assert (<= x 1))
        (assert (>= y 0)) (assert (<= y 1))
        (assert (distinct x y))
    """
    enc = encode_script(script)
    assert extends(enc.instance, {"x": 0, "y": 1}, ["x", "y"])
    assert not extends(enc.instance, {"x": 1, "y": 1}, ["x", "y"])


def test_uf_faithfulness_through_oracle():
    # f(x) = f(y) with x = y must hold; with x != y both values are free
    script = """
        (set-logic QF_UFLIA)
        (declare-fun f (Int) Int)
        (declare-const x Int) (declare-const y Int)
        (assert (>= x 0)) (assert (<= x 1))
        (assert (>= y 0)) (assert (<= y 1))
        (assert (not (= (f x) (f y))))
        (check-sat)
    """
    from imtsolver.model import ImtInstance

    enc = encode_script(script, default_bound=2)
    inst = enc.instance
    boxed = ImtInstance(
        inst.vars,
        inst.bounds.filled(inst.vars, 2),
        inst.constraints,
        inst.atoms,
        inst.objective,
        inst.funs,
    )
    out = brute_force_solve(boxed)
    assert out.status == "optimal"
    point = out.assignment
    assert point["x"] != point["y"]
