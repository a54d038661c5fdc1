"""Front-end adversary: real scripts and instances, mutated, must fail only as an ``ImtError``.

SMT-LIB scripts are mutated at the token level: a parenthesis, symbol or
numeral dropped, duplicated, swapped with another or replaced, or the text
truncated. Native instances are mutated at the line level: a line dropped,
duplicated, swapped with another or taken from another instance, a token in
a line replaced, or the text truncated. Loading the result may fail, but
only with an ``ImtError``; and an input that loads with a box of at most a
few thousand points must reach the oracle's verdict under a node budget.
"""
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import cnf_script, random_cnf, random_instance
from imtsolver.engine import Config, solve
from imtsolver.model import ImtError, ObjValue
from imtsolver.native import parse_instance, render_instance
from imtsolver.oracle import brute_force_solve
from imtsolver.smtlib import encode_script

BOX_LIMIT = 4096
NODE_BUDGET = 2000

SCRIPTS = [
    cnf_script(random_cnf(random.Random(5), 3, 6), 3),
    """
    (set-logic QF_LIA)
    (declare-const x Int) (declare-const y Int) (declare-const p Bool)
    (assert (>= x 0)) (assert (<= x 4)) (assert (>= y (- 2))) (assert (<= y 3))
    (assert (or p (<= (+ x y) 3) (> (* 2 x) (- y 1))))
    (assert (=> p (distinct x y)))
    (maximize (- (+ x (* 3 y)) y))
    (check-sat)
    (get-model)
    """,
    """
    (set-logic QF_UFLIA)
    (declare-fun f (Int) Int)
    (declare-const a Int) (declare-const b Int) (declare-const q Bool)
    (assert (>= a 0)) (assert (<= a 2)) (assert (>= b 0)) (assert (<= b 2))
    (assert (xor q (= (f a) (f b))))
    (assert (not (= a b)))
    (assert (= (ite q a b) (+ b 1)))
    (minimize (- a))
    """,
]

_rng = random.Random(17)
INSTANCES = [render_instance(random_instance(_rng)) for _ in range(3)] + [
    """
    [vars]
    x int 0 3
    y int -1 2
    b int 0 1
    r int -2 2
    [funs]
    f 1
    [objective]
    min 2 x - y
    [constraints]
    x + 2 y <= 7
    x - y > -4
    [atoms]
    r = f(x)
    (x = y) @ b
    """
]

SMT_TOKEN = re.compile(r"[()]|[^\s()]+")
SMT_VOCABULARY = ["(", ")", "-", "+", "*", "0", "1", "-1", "2", str(2**70), "x", "a", "p", "f", "nosuch",
                  "Int", "Bool", "true", "false", "not", "and", "or", "=>", "xor", "ite", "=", "distinct",
                  "<=", "<", ">=", ">", "assert", "minimize", "maximize", "declare-const", "declare-fun",
                  "check-sat", "|q r|", '"s"', ";"]
LINE_VOCABULARY = ["0", "1", "-1", "*", "int", "min", "=", "<=", ">=", "<", ">", "+", "-", "@", "(", ")", ",",
                   "x", "y", "b", "f", "|a b|", "[vars]", "[atoms]", "#", str(2**70), "x0"]


def _mutate(draw, parts, vocabulary, extra=()):
    def pick():
        return draw(st.integers(0, len(parts) - 1))

    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "replace", *extra]))
        if kind == "drop" and len(parts) > 1:
            del parts[pick()]
        elif kind == "duplicate":
            parts.insert(draw(st.integers(0, len(parts))), parts[pick()])
        elif kind == "swap":
            i, j = pick(), pick()
            parts[i], parts[j] = parts[j], parts[i]
        elif kind == "replace":
            parts[pick()] = draw(st.sampled_from(vocabulary))
        elif kind == "mix":
            other = draw(st.sampled_from(INSTANCES)).strip().splitlines()
            parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(other)))
        elif kind == "token":
            i = pick()
            tokens = parts[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(vocabulary))
            parts[i] = " ".join(tokens)
    return parts


@st.composite
def mutated_scripts(draw):
    tokens = SMT_TOKEN.findall(draw(st.sampled_from(SCRIPTS)))
    text = " ".join(_mutate(draw, tokens, SMT_VOCABULARY))
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text, draw(st.sampled_from([None, 2]))


@st.composite
def mutated_instances(draw):
    lines = draw(st.sampled_from(INSTANCES)).strip().splitlines()
    text = "\n".join(_mutate(draw, lines, LINE_VOCABULARY, extra=("mix", "token", "token")))
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _assert_oracle_verdict(instance):
    volume = instance.bounds.volume(instance.vars)
    if volume is None or volume > BOX_LIMIT:
        return
    want = brute_force_solve(instance)
    got = solve(instance, Config(node_limit=NODE_BUDGET))
    assert got.status == want.status, instance.digest()
    if want.status == "optimal":
        assert got.value == ObjValue.finite(want.value), instance.digest()


@settings(max_examples=100, deadline=None)
@given(mutated_scripts())
def test_a_mutated_script_fails_only_as_an_imt_error(example):
    text, default_bound = example
    try:
        enc = encode_script(text, default_bound)
    except ImtError:
        return
    _assert_oracle_verdict(enc.instance)


@settings(max_examples=100, deadline=None)
@given(mutated_instances())
def test_a_mutated_instance_fails_only_as_an_imt_error(text):
    try:
        instance = parse_instance(text)
    except ImtError:
        return
    _assert_oracle_verdict(instance)


def test_the_unmutated_inputs_reach_the_oracle_verdict():
    # the uninterpreted function's results have no box, so that script alone is not enumerated
    instances = [encode_script(text, 2).instance for text in SCRIPTS[:2]] + list(map(parse_instance, INSTANCES))
    for instance in instances:
        assert instance.bounds.volume(instance.vars) <= BOX_LIMIT
        _assert_oracle_verdict(instance)
