"""Trace adversary: real traces, mutated, must fail only as an ``ImtError``.

Each example takes the trace the engine wrote for one of a few small
instances and mutates it: a line dropped, duplicated or swapped with
another, a number or string token replaced, or the file truncated. Reading
and replaying the result may fail, but only with an ``ImtError``; and a
mutated trace that still replays to a final state must reach the oracle's
verdict, since the kernel accepts only sound derivations.
"""
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imtsolver.engine import solve
from imtsolver.kernel import replay_trace, verdict
from imtsolver.model import (
    Bounds,
    ImtError,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
)
from imtsolver.oracle import brute_force_solve
from imtsolver.trace import read_trace, trace_lines


def _instances():
    xy = Bounds({"x": (0, 6), "y": (0, 6)})
    objective = LinExpr.of([("x", 1), ("y", 1)])
    # the LP optimum is fractional, so the search cuts before it finds x + y = 4
    optimal = ImtInstance(["x", "y"], xy, [LinConstraint(LinExpr.of([("x", 2), ("y", 2)]), Relation.GE, 7)], objective=objective)
    # no integer point, so the search learns cuts or branches to close it
    infeasible = ImtInstance(["x", "y"], xy, [LinConstraint(LinExpr.of([("x", 2), ("y", 2)]), Relation.EQ, 7)], objective=objective)
    # f(x) != f(y) forces x != y through the theory
    theory = ImtInstance(
        ["x", "y", "r1", "r2"],
        Bounds({"x": (0, 1), "y": (0, 1), "r1": (0, 1), "r2": (0, 1)}),
        [LinConstraint(LinExpr.of([("r1", 1), ("r2", -1)]), Relation.GE, 1)],
        [InterfaceAtom.fun_def("r1", "f", ("x",)), InterfaceAtom.fun_def("r2", "f", ("y",))],
        objective,
        funs={"f": 1},
    )
    return [optimal, infeasible, theory]


def _oracle_verdict(instance):
    want = brute_force_solve(instance)
    return want.status, ObjValue.finite(want.value) if want.status == "optimal" else ObjValue.pos_inf()


CASES = [(inst, list(trace_lines(inst, solve(inst).steps)), _oracle_verdict(inst)) for inst in _instances()]

# a JSON number, or a JSON string that holds no escape
TOKEN = re.compile(r'-?\d+|"[^"\\]*"')
REPLACEMENTS = ["0", "1", "-1", "2", "7", "12", "1.0", "true", "false", "null", "[]", "{}", "1e400", str(2**80),
                '"x"', '"y"', '"zzz"', '"1"', '"0"', '"1/2"', '"-1"', '"ge"', '"le"', '"="', '"drop"', '"learn"']


@st.composite
def mutated(draw):
    case = draw(st.integers(0, len(CASES) - 1))
    lines = list(CASES[case][1])
    index = st.integers(0, len(lines) - 1)
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "truncate"]))
    if kind == "drop":
        del lines[draw(index)]
    elif kind == "duplicate":
        i = draw(index)
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == "swap":
        i, j = draw(index), draw(index)
        lines[i], lines[j] = lines[j], lines[i]
    text = "".join(line + "\n" for line in lines)
    if kind == "token":
        spans = [m.span() for m in TOKEN.finditer(text)]
        start, end = draw(st.sampled_from(spans))
        text = text[:start] + draw(st.sampled_from(REPLACEMENTS)) + text[end:]
    elif kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return case, text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_a_mutated_trace_fails_only_as_an_imt_error(tmp_path, example):
    case, text = example
    instance, _, want = CASES[case]
    path = tmp_path / "mutated.trace"
    path.write_text(text)
    try:
        _, steps = read_trace(path, instance)
        replay = replay_trace(instance, steps)
    except ImtError:
        return
    if replay.final:
        assert verdict(instance, replay.state) == want


@pytest.mark.parametrize("case", range(len(CASES)))
def test_an_unmutated_trace_replays_to_the_oracle_verdict(tmp_path, case):
    instance, lines, want = CASES[case]
    path = tmp_path / "run.trace"
    path.write_text("".join(line + "\n" for line in lines))
    _, steps = read_trace(path, instance)
    replay = replay_trace(instance, steps)
    assert replay.final
    assert verdict(instance, replay.state) == want
