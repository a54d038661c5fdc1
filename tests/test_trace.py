import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imtsolver.certificates import (
    BoundFix,
    BranchConflictSplit,
    BranchDichotomy,
    BranchTrichotomy,
    CGCut,
    FarkasProof,
    LbDual,
    RetireEvidence,
    SideCut,
    TheoryLiteral,
    TheoryRefutation,
    UnboundedEvidence,
)
from imtsolver.cli import EXIT_ERROR, main
from imtsolver.engine import solve
from imtsolver.kernel import ReplayError, Step, replay_trace
from imtsolver.native import parse_instance
from imtsolver.smtlib import encode_script
from imtsolver.model import (
    Bounds,
    ImtInstance,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
)
from imtsolver.trace import (
    FORMAT_VERSION,
    DigestMismatch,
    TraceError,
    _Table,
    read_trace,
    step_from_json,
    trace_lines,
    write_trace,
)
from trace_reference import canonical_rows, trace_to_json


def row(terms, rel, rhs):
    return LinConstraint(LinExpr.of(terms), rel, rhs)


R1 = row([("x", 1), ("y", -2)], Relation.GE, -3)
R2 = row([("x", 1)], Relation.LE, 4)
CUT = CGCut(((R1, "ge", Fraction(1, 2)), (R2, "le", Fraction(3, 2))))
LIT_EQ = TheoryLiteral.var_eq("x", "y")
LIT_DQ = TheoryLiteral.var_diseq("y", "x")
LIT_AT = TheoryLiteral.atom_true("a")

STEPS = [
    Step("branch", target=0, cert=BranchDichotomy("x", 3)),
    Step("branch", target=1, cert=BranchTrichotomy("x", "y", -2)),
    Step("branch", target=2, cert=BranchConflictSplit((LIT_EQ, LIT_DQ, LIT_AT))),
    Step("learn", target=3, row=R2, cert=CUT),
    Step("forget", target=4, row=R2, cert=CUT),
    Step("learn", target=5, row=row([("x", 1), ("y", -1)], Relation.EQ, 7), cert=BoundFix(CUT, CUT)),
    Step("learn", target=5, row=row([("x", 1)], Relation.EQ, -1), cert=BoundFix(CUT, CUT)),
    Step(
        "drop",
        target=6,
        cert=TheoryRefutation(
            (LIT_EQ, LIT_DQ, LIT_AT, TheoryLiteral.atom_false("b")),
            (BoundFix(CUT, CUT), SideCut("le", CUT), CUT, CUT),
        ),
    ),
    Step("drop", target=7, cert=FarkasProof(((R1, "ge", Fraction(2)),))),
    Step("prune", target=8, cert=LbDual(-3, ((R1, "ge", Fraction(1)),))),
    Step("prune", target=8, cert=LbDual(0, ((R1, "ge", Fraction(2)), (R2, "le", Fraction(1, 3))))),
    Step("prune", target=8, cert=LbDual(5, ())),
    Step("retire", target=9, cert=RetireEvidence((("x", 1), ("y", -2)), LbDual(1, ()))),
    Step("unbounded", target=10, cert=UnboundedEvidence((("x", 0),), (("x", -1), ("y", 2)))),
]


def step_id(step):
    """A step's rule; a theory drop and an equality learn are told apart from the other drops and learns."""
    if isinstance(step.cert, TheoryRefutation):
        return "drop-theory"
    return "learn-eq" if isinstance(step.cert, BoundFix) else step.rule


@pytest.mark.parametrize("step", STEPS, ids=step_id)
def test_step_json_round_trip(step):
    inst = small_instance()
    (obj,) = trace_to_json(inst, [step])
    assert step_from_json(json.loads(json.dumps(obj)), _Table(canonical_rows(inst))) == step


def small_instance():
    return ImtInstance(
        ["x", "y"],
        Bounds({"x": (0, 6), "y": (0, 6)}),
        [row([("x", 2), ("y", 3)], Relation.GE, 12)],
        objective=LinExpr.of([("x", 1), ("y", 1)]),
    )


def reference_lines(steps):
    return [json.dumps(obj, separators=(",", ":")) for obj in trace_to_json(small_instance(), steps)]


def written_lines(steps):
    return list(trace_lines(small_instance(), steps))[1:]


@pytest.mark.parametrize("step", STEPS, ids=step_id)
def test_writer_matches_the_reference_encoder(step):
    assert written_lines([step]) == reference_lines([step])


# a quote, a backslash, a non-ASCII letter, a control character and a pipe-quoted name
ODD_NAMES = ['a"b', "a\\b", "caf\u00e9", "x\x01y", "|a b|"]
BIG = 2**64 + 3


def odd_steps(name):
    r = row([(name, -BIG), ("y", 2)], Relation.LE, -BIG)
    cut = CGCut(((r, "le", 2), (R1, "ge", Fraction(3, 4)), (R2, "le", Fraction(-BIG, -7))))
    lit = TheoryLiteral.var_eq(name, "y")
    return [
        Step("branch", target=BIG, cert=BranchDichotomy(name, -BIG)),
        Step("branch", target=0, cert=BranchTrichotomy(name, "y", BIG)),
        Step("branch", target=0, cert=BranchConflictSplit((lit, TheoryLiteral.atom_true(name)))),
        Step("learn", target=1, row=r, cert=cut),
        Step("learn", target=2, row=row([(name, 1)], Relation.EQ, -BIG), cert=BoundFix(cut, cut)),
        Step("learn", target=2, row=row([(name, 1), ("y", -1)], Relation.EQ, BIG), cert=BoundFix(cut, cut)),
        Step("prune", target=3, cert=LbDual(-BIG, cut.entries)),
        Step("drop", target=3, cert=TheoryRefutation((lit,), (BoundFix(cut, cut),))),
        Step("retire", target=4, cert=RetireEvidence(((name, -BIG),), LbDual(BIG, ()))),
        Step("unbounded", target=5, cert=UnboundedEvidence(((name, 0),), ((name, -1),))),
        Step(name, target=-BIG),
    ]


@pytest.mark.parametrize("name", ODD_NAMES)
def test_writer_escapes_names_and_writes_big_numbers_as_the_reference_does(name):
    steps = odd_steps(name)
    assert written_lines(steps) == reference_lines(steps)


def test_write_trace_writes_the_reference_lines_in_ascii(tmp_path):
    inst = small_instance()
    steps = STEPS + odd_steps("caf\u00e9")
    path = tmp_path / "run.trace"
    write_trace(path, inst, steps)
    header = json.dumps({"format": "bct-trace", "version": FORMAT_VERSION, "instance": inst.digest()}, separators=(",", ":"))
    expected = "".join(line + "\n" for line in [header, *reference_lines(steps)])
    assert path.read_bytes() == expected.encode("ascii")


names = st.text(max_size=4)
ints = st.integers(-(2**70), 2**70)
rows = st.builds(row, st.lists(st.tuples(names, ints), max_size=3), st.sampled_from(Relation), ints)
mults = st.one_of(st.integers(0, 2**70), st.fractions(min_value=0))
entries = st.lists(st.tuples(rows, st.sampled_from(["ge", "le"]), mults), max_size=3).map(tuple)
cg_cuts = entries.map(CGCut)
lits = st.one_of(
    st.builds(TheoryLiteral, st.sampled_from(["eq", "diseq"]), names, names),
    st.builds(lambda kind, v: TheoryLiteral(kind, var=v), st.sampled_from(["atom_true", "atom_false"]), names),
)
lit_tuples = st.lists(lits, max_size=3).map(tuple)
lb_duals = st.builds(LbDual, ints, entries)
pairs = st.lists(st.tuples(names, ints), max_size=3).map(tuple)
bound_fixes = st.builds(BoundFix, cg_cuts, cg_cuts)
side_cuts = st.builds(SideCut, st.sampled_from(["le", "ge"]), cg_cuts)
evidence = st.one_of(cg_cuts, bound_fixes, side_cuts)
certs = st.one_of(
    cg_cuts,
    entries.map(FarkasProof),
    bound_fixes,
    side_cuts,
    lb_duals,
    st.builds(TheoryRefutation, lit_tuples, st.lists(evidence, max_size=3).map(tuple)),
    st.builds(BranchDichotomy, names, ints),
    st.builds(BranchTrichotomy, names, names, ints),
    st.builds(BranchConflictSplit, lit_tuples),
    st.builds(RetireEvidence, pairs, lb_duals),
    st.builds(UnboundedEvidence, pairs, pairs),
)
any_steps = st.builds(Step, names, st.none() | ints, st.none() | rows, st.none() | certs)


@settings(max_examples=100, deadline=None)
@given(st.lists(any_steps, max_size=4))
def test_writer_matches_the_reference_encoder_on_generated_steps(steps):
    assert written_lines(steps) == reference_lines(steps)


def test_trace_file_round_trip(tmp_path):
    inst = small_instance()
    result = solve(inst)
    path = tmp_path / "run.trace"
    write_trace(path, inst, result.steps)
    digest, steps = read_trace(path, inst)
    assert digest == inst.digest()
    assert tuple(steps) == result.steps
    rep = replay_trace(inst, steps)
    assert rep.final


def test_read_trace_rejects_wrong_instance(tmp_path):
    inst = small_instance()
    other = ImtInstance(["x"], Bounds({"x": (0, 1)}), [], objective=LinExpr.var("x"))
    result = solve(inst)
    path = tmp_path / "run.trace"
    write_trace(path, inst, result.steps)
    with pytest.raises(DigestMismatch):
        read_trace(path, other)


def test_read_trace_rejects_garbage(tmp_path):
    inst = small_instance()
    path = tmp_path / "bad.trace"
    path.write_text("")
    with pytest.raises(TraceError):
        read_trace(path, inst)
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(TraceError):
        read_trace(path, inst)
    path.write_text('{"format": "bct-trace", "version": 99}\n')
    with pytest.raises(TraceError):
        read_trace(path, inst)
    path.write_text("[1]\n")
    with pytest.raises(TraceError):
        read_trace(path, inst)
    # the version is a JSON integer, which the same number as a float equals in Python
    for version in ("true", f"{FORMAT_VERSION}.0"):
        path.write_text(f'{{"format": "bct-trace", "version": {version}, "instance": "abc"}}\n')
        with pytest.raises(TraceError, match="unsupported version"):
            read_trace(path, inst)
    # the digest is a JSON string, checked before it is compared with the instance's
    for digest in ("[1]", "null", "7"):
        path.write_text(f'{{"format": "bct-trace", "version": {FORMAT_VERSION}, "instance": {digest}}}\n')
        with pytest.raises(TraceError, match="instance digest"):
            read_trace(path, inst)
    path.write_text(f'{{"format": "bct-trace", "version": {FORMAT_VERSION}}}\n')
    with pytest.raises(TraceError, match="instance digest"):
        read_trace(path, inst)
    path.write_bytes(b'\xff' + f'{{"format": "bct-trace", "version": {FORMAT_VERSION}, "instance": "abc"}}\n'.encode())
    with pytest.raises(TraceError, match="UTF-8"):
        read_trace(path, inst)


def test_a_version_1_trace_is_refused_at_its_header(tmp_path, capsys):
    text = "[vars]\nx int 0 3\n\n[objective]\nmin x\n\n[constraints]\nx >= 1\n"
    instance = tmp_path / "inst.imt"
    instance.write_text(text)
    # version 1 certified a theory conflict with a tlearn step and carried theory tokens
    header = {"format": "bct-trace", "version": 1, "instance": parse_instance(text).digest()}
    retire = {
        "rule": "retire",
        "target": 0,
        "cert": {"kind": "retire", "assignment": [["x", 1]], "lb": RETIRE_LB, "token": {"kind": "model", "literals": []}},
    }
    trace = tmp_path / "old.trace"
    trace.write_text(json.dumps(header) + "\n" + json.dumps(retire) + "\n")
    with pytest.raises(TraceError, match="^unsupported version 1$"):
        read_trace(trace, parse_instance(text))
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: unsupported version 1\n"


# version 2 certified a pinned difference with a propagate step and its eq field
PROPAGATE = {
    "rule": "propagate",
    "target": 0,
    "eq": {"x": "x", "y": None, "c": 1},
    "cert": {"kind": "bound_fix", "lower": {"kind": "cg", "entries": []}, "upper": {"kind": "cg", "entries": []}},
}


def _old_trace(tmp_path, version, step=PROPAGATE):
    text = "[vars]\nx int 0 3\n\n[objective]\nmin x\n\n[constraints]\nx >= 1\n"
    instance = tmp_path / "inst.imt"
    instance.write_text(text)
    header = {"format": "bct-trace", "version": version, "instance": parse_instance(text).digest()}
    trace = tmp_path / "old.trace"
    trace.write_text(json.dumps(header) + "\n" + json.dumps(step) + "\n")
    return instance, trace


def test_a_version_2_trace_is_refused_at_its_header(tmp_path, capsys):
    instance, trace = _old_trace(tmp_path, 2)
    with pytest.raises(TraceError, match="^unsupported version 2$"):
        read_trace(trace, parse_instance(instance.read_text()))
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: unsupported version 2\n"


def test_a_version_3_trace_is_refused_at_its_header(tmp_path, capsys):
    # version 3 wrote every cited row in full; it had no row table to number them by
    refute = drop({"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": "<=", "rhs": 3}, "le", "1"]]})
    instance, trace = _old_trace(tmp_path, 3, refute)
    with pytest.raises(TraceError, match="^unsupported version 3$"):
        read_trace(trace, parse_instance(instance.read_text()))
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: unsupported version 3\n"


# the first steps of a version 4 trace of this instance: a conflict split and
# the theory drops of its two children where every core literal holds
V4_TEXT = "[vars]\nx int 0 1\ny int 0 1\nr1 int 2 3\nr2 int 2 3\n[funs]\nf 1\n[objective]\nmin r1 + x + y\n[constraints]\nr1 - r2 >= 1\n[atoms]\nr1 = f(x)\nr2 = f(y)\n"
V4_STEPS = [
    '{"rule":"branch","target":0,"cert":{"kind":"conflict_split","core":[{"kind":"diseq","x":"r1","y":"r2","offset":0},{"kind":"eq","x":"x","y":"y","offset":0}]}}',
    '{"rule":"drop","target":4,"cert":{"kind":"theory","asserted":[{"kind":"diseq","x":"r1","y":"r2","offset":0},{"kind":"eq","x":"x","y":"y","offset":0}],"evidence":[{"kind":"side","side":"le","cut":{"kind":"cg","entries":[[{"lhs":[["r1",1],["r2",-1]],"rel":"<=","rhs":-1},"le","1"]]}},{"kind":"bound_fix","lower":{"kind":"cg","entries":[[{"lhs":[["x",1],["y",-1]],"rel":"=","rhs":0},"ge","1"]]},"upper":{"kind":"cg","entries":[[10,"le","1"]]}}]}}',
    '{"rule":"drop","target":7,"cert":{"kind":"theory","asserted":[{"kind":"diseq","x":"r1","y":"r2","offset":0},{"kind":"eq","x":"x","y":"y","offset":0}],"evidence":[{"kind":"side","side":"ge","cut":{"kind":"cg","entries":[[0,"ge","1"]]}},{"kind":"bound_fix","lower":{"kind":"cg","entries":[[10,"ge","1"]]},"upper":{"kind":"cg","entries":[[10,"le","1"]]}}]}}',
]


def test_a_version_4_trace_is_refused_at_its_header(tmp_path, capsys):
    # version 4 gave a conflict split a child where every core literal holds, closed by a theory drop
    inst = parse_instance(V4_TEXT)
    instance = tmp_path / "inst.imt"
    instance.write_text(V4_TEXT)
    trace = tmp_path / "old.trace"
    header = {"format": "bct-trace", "version": 4, "instance": inst.digest()}
    trace.write_text("".join(line + "\n" for line in [json.dumps(header, separators=(",", ":")), *V4_STEPS]))
    with pytest.raises(TraceError, match="^unsupported version 4$"):
        read_trace(trace, inst)
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: unsupported version 4\n"
    # without their offsets its lines decode, but the split now makes no such child, so the first drop misses
    header["version"] = FORMAT_VERSION
    lines = [line.replace(',"offset":0', "") for line in V4_STEPS]
    trace.write_text("".join(line + "\n" for line in [json.dumps(header), *lines]))
    _, steps = read_trace(trace, inst)
    with pytest.raises(ReplayError, match="^step 1: drop: combination references a row outside the subproblem"):
        replay_trace(inst, steps)


# the first steps of a version 5 trace of V4_TEXT: its conflict split, and a retire
# whose bound is an object of a kind and a value
V5_STEPS = [
    V4_STEPS[0],
    '{"rule":"retire","target":3,"cert":{"kind":"retire","assignment":[["r1",2],["r2",3],["x",0],["y",1]],"lb":{"kind":"lb","bound":{"kind":0,"value":3},"entries":[]}}}',
]


def test_a_version_5_trace_is_refused_at_its_header(tmp_path, capsys):
    # version 5 wrote an offset on every (dis)equality literal and every bound as {"kind","value"}
    inst = parse_instance(V4_TEXT)
    instance = tmp_path / "inst.imt"
    instance.write_text(V4_TEXT)
    trace = tmp_path / "old.trace"
    header = {"format": "bct-trace", "version": 5, "instance": inst.digest()}
    trace.write_text("".join(line + "\n" for line in [json.dumps(header, separators=(",", ":")), *V5_STEPS]))
    with pytest.raises(TraceError, match="^unsupported version 5$"):
        read_trace(trace, inst)
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: unsupported version 5\n"


def test_a_propagate_line_replays_to_unknown_rule(tmp_path, capsys):
    instance, trace = _old_trace(tmp_path, FORMAT_VERSION)
    _, steps = read_trace(trace, parse_instance(instance.read_text()))
    with pytest.raises(ReplayError, match="^step 0: unknown rule 'propagate'$"):
        replay_trace(parse_instance(instance.read_text()), steps)
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err == "trace rejected: step 0: unknown rule 'propagate'\n"


def test_a_subsume_line_is_refused_with_its_line(tmp_path, capsys):
    # a well-formed step whose certificate kind the reader does not know is refused at its line
    subsume = {"rule": "subsume", "target": 0, "other": 1, "cert": {"kind": "subsume"}}
    instance, trace = _old_trace(tmp_path, FORMAT_VERSION, subsume)
    with pytest.raises(TraceError, match="^line 2: unknown certificate kind 'subsume'$"):
        read_trace(trace, parse_instance(instance.read_text()))
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: line 2: unknown certificate kind 'subsume'\n"


@pytest.mark.parametrize(
    "blank, line", [("", 2), ("\n\n", 4), ("   \n\n", 4), ("\r\n\n", 4)], ids=["none", "two", "spaces", "crlf"]
)
def test_a_reader_error_names_the_file_line_past_blank_lines(tmp_path, blank, line):
    inst = small_instance()
    path = tmp_path / "bad.trace"
    header = f'{{"format": "bct-trace", "version": {FORMAT_VERSION}, "instance": "{inst.digest()}"}}'
    path.write_bytes(f'{header}\n{blank}{{"rule":5}}\n'.encode())
    with pytest.raises(TraceError, match=f"^line {line}: expected a string, got 5$"):
        read_trace(path, inst)


@pytest.mark.parametrize("sep", ["\u0085", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
def test_a_name_holding_a_unicode_line_separator_reads_back(tmp_path, sep):
    # JSON strings may hold these unescaped; str.splitlines() breaks at them
    name = f"|a{sep}b|"
    script = f"(declare-fun {name} () Int)(assert (<= 1 {name}))(assert (<= {name} 3))(minimize {name})"
    inst = encode_script(script).instance
    result = solve(inst)
    assert result.status == "optimal" and result.value == ObjValue.finite(1)
    header, *lines = trace_lines(inst, result.steps)
    unescaped = [json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")) for line in lines]
    assert any(sep in line for line in unescaped)
    path = tmp_path / "run.trace"
    path.write_bytes("".join(line + "\n" for line in [header, *unescaped]).encode("utf-8"))
    _, steps = read_trace(path, inst)
    assert tuple(steps) == result.steps
    assert replay_trace(inst, steps).final


def drop(cert):
    return {"rule": "drop", "target": 0, "cert": cert}


FARKAS = {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", "1"]]}
RETIRE_LB = {"kind": "lb", "bound": 1, "entries": []}


@pytest.mark.parametrize(
    "step",
    [
        *map(
            drop,
            [
                {"kind": "farkas", "entries": 5},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 0}, "ge", "1/0"]]},
                # multipliers are rational strings; 0.5, true and 1 are not
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 0}, "ge", [1]]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", 0.5]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", True]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", 1]]},
                # values that cannot key the decoding memo are decoded, and rejected, afresh
                {"kind": "farkas", "entries": [[{"lhs": [[{"x": 1}, 1]], "rel": ">=", "rhs": 0}, "ge", "1"]]},
                # a variable name is a string; a number would fail only when the kernel renders the row
                {"kind": "farkas", "entries": [[{"lhs": [[0, 1]], "rel": ">=", "rhs": 0}, "ge", "1"]]},
                # JSON reads 1e400 as an infinite float, which no int holds
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1e400}, "ge", "1"]]},
                # int() would read these as 1, 5, 1 and a coefficient 1
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1.5}, "ge", "1"]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": "5"}, "ge", "1"]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": True}, "ge", "1"]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1.9]], "rel": ">=", "rhs": 1}, "ge", "1"]]},
                # 1.0 and true equal 1, so the first row must not answer for its twin
                {
                    "kind": "farkas",
                    "entries": [
                        [{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", "1"],
                        [{"lhs": [["x", 1]], "rel": ">=", "rhs": 1.0}, "ge", "1"],
                    ],
                },
                {
                    "kind": "farkas",
                    "entries": [
                        [{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", "1"],
                        [{"lhs": [["x", 1]], "rel": ">=", "rhs": True}, "ge", "1"],
                    ],
                },
                {
                    "kind": "farkas",
                    "entries": [
                        [{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", "1"],
                        [{"lhs": [["x", True]], "rel": ">=", "rhs": 1}, "ge", "1"],
                    ],
                },
                # a bound is a JSON integer, not version 5's object of a kind and a value
                {"kind": "lb", "bound": {"kind": 0, "value": None}, "entries": []},
                {"kind": "lb", "bound": {"kind": 1, "value": 5}, "entries": []},
                {"kind": "lb", "bound": {"kind": 2, "value": None}, "entries": []},
                {"kind": "lb", "bound": {"kind": 0, "value": 3}, "entries": []},
                {"kind": "lb", "bound": None, "entries": []},
                {"kind": "lb", "bound": 1.5, "entries": []},
                {"kind": "lb", "bound": True, "entries": []},
                # a (dis)equality literal relates x and y alone; an offset, even 0, is refused
                {"kind": "conflict_split", "core": [{"kind": "eq", "x": "x", "y": "y", "offset": 0}]},
                {"kind": "conflict_split", "core": [{"kind": "eq", "x": "x", "y": "y", "offset": 3}]},
                {"kind": "conflict_split", "core": [{"kind": "diseq", "x": "x", "y": "y", "offset": -1}]},
                # twins of the instance's row x >= 1 and box row x >= 0, which
                # start the row table
                {"kind": "farkas", "entries": [[{"lhs": [["x", True]], "rel": ">=", "rhs": 1}, "ge", "1"]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": 1.0}, "ge", "1"]]},
                {"kind": "farkas", "entries": [[{"lhs": [["x", 1]], "rel": ">=", "rhs": False}, "ge", "1"]]},
            ],
        ),
        # names and node indices would reach the kernel as keys; lists and objects cannot be
        {"rule": ["drop"], "target": 0, "cert": FARKAS},
        {"rule": "drop", "target": [0], "cert": FARKAS},
        {"rule": "branch", "target": 0, "cert": {"kind": "dichotomy", "var": ["x"], "k": 1}},
        {
            "rule": "retire",
            "target": 0,
            "cert": {"kind": "retire", "assignment": [[["x"], 1]], "lb": RETIRE_LB},
        },
    ],
    ids=[
        "non_list_entries",
        "zero_denominator",
        "unhashable_multiplier",
        "float_multiplier",
        "bool_multiplier",
        "int_multiplier",
        "unhashable_variable",
        "integer_variable_name",
        "infinite_rhs",
        "float_rhs",
        "string_rhs",
        "bool_rhs",
        "float_coefficient",
        "float_rhs_after_its_integer",
        "bool_rhs_after_its_integer",
        "bool_coefficient_after_its_integer",
        "finite_bound_without_value",
        "infinite_bound_with_value",
        "unknown_bound_kind",
        "version_5_finite_bound",
        "null_bound",
        "float_bound",
        "bool_bound",
        "zero_offset",
        "offset",
        "diseq_offset",
        "bool_coefficient_of_an_instance_row",
        "float_rhs_of_an_instance_row",
        "bool_rhs_of_a_box_row",
        "list_rule",
        "list_target",
        "list_branch_variable",
        "list_assignment_name",
    ],
)
def test_replay_of_a_malformed_certificate_is_an_error(tmp_path, capsys, step):
    text = "[vars]\nx int 0 3\n\n[objective]\nmin x\n\n[constraints]\nx >= 1\n"
    instance = tmp_path / "inst.imt"
    instance.write_text(text)
    header = {"format": "bct-trace", "version": FORMAT_VERSION, "instance": parse_instance(text).digest()}
    trace = tmp_path / "bad.trace"
    trace.write_text(json.dumps(header) + "\n" + json.dumps(step) + "\n")
    with pytest.raises(TraceError, match="^line 2: "):
        read_trace(trace, parse_instance(text))
    assert main([str(instance), "--replay", str(trace)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: line 2: ")


CITING_TEXT = "[vars]\nx int 0 3\n\n[objective]\nmin x\n\n[constraints]\nx >= 1\n"


def _citing_trace(tmp_path, *steps):
    """A trace of ``x >= 1`` over x in [0, 3], whose row table starts x >= 1, x >= 0, x <= 3."""
    inst = parse_instance(CITING_TEXT)
    header = {"format": "bct-trace", "version": FORMAT_VERSION, "instance": inst.digest()}
    path = tmp_path / "cite.trace"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *steps]))
    return inst, path


# writes x <= 0 in full, which becomes row 3, so the table then has 4 rows
X_LE_0 = {"lhs": [["x", 1]], "rel": "<=", "rhs": 0}
LEARN_X_LE_0 = {"rule": "learn", "target": 0, "row": X_LE_0, "cert": {"kind": "cg", "entries": []}}


@pytest.mark.parametrize("citation", [-1, 4, True, 1.0], ids=["negative", "past_the_table", "bool", "float"])
@pytest.mark.parametrize("place", ["row", "entry"])
def test_a_citation_outside_the_row_table_is_refused_with_its_line(tmp_path, capsys, citation, place):
    if place == "row":
        step = {"rule": "learn", "target": 1, "row": citation, "cert": {"kind": "cg", "entries": []}}
    else:
        step = drop({"kind": "farkas", "entries": [[0, "ge", "1"], [citation, "le", "1"]]})
    inst, path = _citing_trace(tmp_path, LEARN_X_LE_0, step)
    with pytest.raises(TraceError, match="^line 3: "):
        read_trace(path, inst)
    instance = tmp_path / "inst.imt"
    instance.write_text(CITING_TEXT)
    assert main([str(instance), "--replay", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: line 3: ")


def test_a_row_written_in_full_twice_takes_a_new_number(tmp_path):
    # the step's row x <= 0 becomes row 3; x >= 1 in full is not looked up, and becomes row 4
    x_ge_1 = {"lhs": [["x", 1]], "rel": ">=", "rhs": 1}
    twice = {"rule": "learn", "target": 0, "row": X_LE_0, "cert": {"kind": "cg", "entries": [[x_ge_1, "ge", "0"]]}}
    farkas = drop({"kind": "farkas", "entries": [[4, "ge", "1"], [3, "le", "1"]]})
    inst, path = _citing_trace(tmp_path, twice, farkas)
    _, (learn, refute) = read_trace(path, inst)
    again = learn.cert.entries[0][0]
    assert again.render() == "x >= 1" and again == inst.canonical_rows[0] and again is not inst.canonical_rows[0]
    assert [r for r, _, _ in refute.cert.entries] == [again, learn.row]
    assert refute.cert.entries[0][0] is again and refute.cert.entries[1][0] is learn.row
    inst, path = _citing_trace(tmp_path, twice, drop({"kind": "farkas", "entries": [[5, "ge", "1"]]}))
    with pytest.raises(TraceError, match="^line 3: row 5 is not in the row table of 5 rows$"):
        read_trace(path, inst)


def test_each_citing_place_reads_back_its_own_row(tmp_path):
    inst = small_instance()
    (con,) = inst.constraints
    rows = [row([("x", 1), ("y", k)], Relation.LE, k) for k in range(1, 12)]

    def cut(r):
        # the place's own row twice, an instance row and the row of the place before
        before = rows[rows.index(r) - 1]
        return CGCut(((r, "le", Fraction(1, 2)), (con, "ge", Fraction(1)), (r, "le", Fraction(3)), (before, "le", 2)))

    steps = [
        Step("learn", target=0, row=rows[0], cert=cut(rows[1])),
        Step("learn", target=1, row=rows[0], cert=cut(rows[0])),
        Step("drop", target=2, cert=FarkasProof(cut(rows[2]).entries)),
        Step("prune", target=3, cert=LbDual(2, cut(rows[3]).entries)),
        Step("learn", target=4, row=rows[4], cert=BoundFix(cut(rows[5]), cut(rows[6]))),
        Step("drop", target=5, cert=TheoryRefutation((LIT_EQ, LIT_DQ), (SideCut("le", cut(rows[7])), cut(rows[8])))),
        Step("retire", target=6, cert=RetireEvidence((("x", 1),), LbDual(1, cut(rows[9]).entries))),
        Step("retire", target=7, cert=RetireEvidence((("x", 2),), LbDual(2, cut(rows[10]).entries))),
    ]
    path = tmp_path / "run.trace"
    write_trace(path, inst, steps)
    text = path.read_text()
    assert text.splitlines()[1:] == reference_lines(steps)
    # every row is written in full once and cited by its number after that
    for r in [con, *rows]:
        full = json.dumps({"lhs": [list(t) for t in r.lhs.terms], "rel": r.rel.value, "rhs": r.rhs}, separators=(",", ":"))
        assert text.count(full) == (r is not con)
    _, got = read_trace(path, inst)
    assert tuple(got) == tuple(steps)
    # the rows one trace writes in full are its own: the next trace writes them again
    assert inst.row_numbers == {r: i for i, r in enumerate(inst.canonical_rows)}
    write_trace(tmp_path / "again.trace", inst, steps)
    assert (tmp_path / "again.trace").read_text() == text


def test_step_from_json_checks_a_row_before_its_memoised_twin():
    entry = [{"lhs": [["x", 1]], "rel": ">=", "rhs": 1}, "ge", "1"]
    twin = [{"lhs": [["x", 1]], "rel": ">=", "rhs": 1.0}, "ge", "1"]
    obj = {"rule": "drop", "target": 0, "cert": {"kind": "farkas", "entries": [entry, twin]}}
    with pytest.raises(ValueError, match="expected an integer"):
        step_from_json(obj, _Table())


# (index into STEPS, path to an integer field of its JSON form)
INTEGER_FIELDS = [
    (0, ("cert", "k")),
    (1, ("cert", "c")),
    (3, ("row", "rhs")),
    (3, ("row", "lhs", 0, 1)),
    (5, ("row", "lhs", 1, 1)),
    (9, ("cert", "bound")),
    (12, ("cert", "lb", "bound")),
    (12, ("cert", "assignment", 0, 1)),
    (13, ("cert", "ray", 0, 1)),
]


@pytest.mark.parametrize("bad", [1.0, "1", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize(
    "index, path", INTEGER_FIELDS, ids=[f"{STEPS[i].rule}:{'/'.join(map(str, path))}" for i, path in INTEGER_FIELDS]
)
def test_integer_fields_accept_only_json_integers(tmp_path, index, path, bad):
    inst = small_instance()
    (obj,) = trace_to_json(inst, [STEPS[index]])
    *head, last = path
    field = obj
    for key in head:
        field = field[key]
    field[last] = bad
    header = {"format": "bct-trace", "version": FORMAT_VERSION, "instance": inst.digest()}
    trace = tmp_path / "bad.trace"
    trace.write_text(json.dumps(header) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(TraceError, match="expected an integer"):
        read_trace(trace, inst)


def test_an_instance_row_is_read_back_as_the_instance_own_object(tmp_path):
    inst = small_instance()
    cited = [*inst.constraints, *inst.box_rows]
    step = Step("drop", target=0, cert=FarkasProof(tuple((r, "ge", Fraction(1)) for r in cited)))
    path = tmp_path / "run.trace"
    write_trace(path, inst, [step])
    # each is cited by its number in the row table
    written = json.loads(path.read_text().splitlines()[1])
    assert [r for r, _, _ in written["cert"]["entries"]] == [canonical_rows(inst).index(r) for r in cited]
    _, (got,) = read_trace(path, inst)
    assert got == step
    assert all(r is want for (r, _, _), want in zip(got.cert.entries, cited))


@pytest.mark.parametrize(
    "lhs",
    [[["y", 3], ["x", 2]], [["x", 2], ["z", 0], ["y", 3]], [["x", 1], ["y", 3], ["x", 1]]],
    ids=["unsorted", "zero_coefficient", "repeated_variable"],
)
def test_a_non_canonical_row_decodes_to_the_canonical_row(tmp_path, lhs):
    inst = small_instance()
    (con,) = inst.constraints  # 2x + 3y >= 12
    rows = [{"lhs": lhs, "rel": ">=", "rhs": 12}, {"lhs": [["x", 2], ["y", 3]], "rel": ">=", "rhs": 12}]
    header = {"format": "bct-trace", "version": FORMAT_VERSION, "instance": inst.digest()}
    path = tmp_path / "run.trace"
    path.write_text(json.dumps(header) + "\n" + json.dumps(drop({"kind": "farkas", "entries": [[r, "ge", "1"] for r in rows]})) + "\n")
    _, (step,) = read_trace(path, inst)
    spelled, canonical = (r for r, _, _ in step.cert.entries)
    assert spelled == canonical == con
    assert spelled.lhs.terms == (("x", 2), ("y", 3))


# the writer's "n" and "n/d" take a fast path; every string must read as Fraction reads it
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/+-._ e\u0663\u00b2", max_size=8))
@example("3/6")
@example("007/010")
@example("1/0")
@example("\u0663/4")
@example("\u00b2")
@example("1_0/2")
@example("1/2/3")
@example("/2")
@example("2/")
def test_a_multiplier_reads_as_fraction_reads_it(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            _Table().mult(text)
    else:
        assert _Table().mult(text) == want


def test_replay_rejects_a_tampered_step(tmp_path):
    from imtsolver.engine import Config

    inst = ImtInstance(
        ["x", "y"],
        Bounds({"x": (0, 6), "y": (0, 6)}),
        [row([("x", 2), ("y", 2)], Relation.GE, 7)],
        objective=LinExpr.of([("x", 1), ("y", 1)]),
    )
    result = solve(inst, Config(max_cut_rounds=0))  # force a dichotomy
    steps = list(result.steps)
    # flip the first learn/branch payload found
    for i, step in enumerate(steps):
        if step.rule == "branch" and isinstance(step.cert, BranchDichotomy):
            steps[i] = Step("branch", target=step.target, cert=BranchDichotomy("zzz", step.cert.k))
            break
        if step.rule == "learn":
            steps[i] = Step("learn", target=step.target, row=step.row, cert=CGCut(()))
            break
    else:
        pytest.skip("trace had no branch or learn step to tamper with")
    with pytest.raises(ReplayError) as err:
        replay_trace(inst, steps)
    assert err.value.index == i
