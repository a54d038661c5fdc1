import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from imtsolver import engine
from imtsolver.certificates import CGCut
from imtsolver.kernel import RuleViolation
from imtsolver.native import parse_instance
from imtsolver.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNBOUNDED,
    main,
)

from gen import random_instance

OPT = """
[vars]
x int 0 10
y int 0 10

[objective]
min x + y

[constraints]
2x + 2y >= 7
"""

INFEASIBLE = """
[vars]
x int 0 3

[objective]
min x

[constraints]
2x >= 9
"""

UNBOUNDED = """
[vars]
x int * *

[objective]
min x

[constraints]
x <= 5
"""

FEAS = """
[vars]
x int 0 4

[objective]
min 0

[constraints]
x >= 1
"""

SMT = """
(declare-const x Int)
(assert (>= x 0)) (assert (<= x 9))
(assert (>= (* 2 x) 5))
(minimize x)
(check-sat)
(get-model)
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_optimal_native(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    code, out, err = run(capsys, str(p))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "optimal 4"
    assert "(x " in out and "(y " in out
    assert "nodes=" in err


def test_feasibility_prints_sat(tmp_path, capsys):
    p = tmp_path / "feas.imt"
    p.write_text(FEAS)
    code, out, _ = run(capsys, str(p))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "sat"


def test_infeasible_native(tmp_path, capsys):
    p = tmp_path / "inf.imt"
    p.write_text(INFEASIBLE)
    code, out, _ = run(capsys, str(p))
    assert code == EXIT_INFEASIBLE
    assert out.strip() == "infeasible"


def test_unbounded_native(tmp_path, capsys):
    p = tmp_path / "unb.imt"
    p.write_text(UNBOUNDED)
    code, out, _ = run(capsys, str(p))
    assert code == EXIT_UNBOUNDED
    assert out.strip() == "unbounded"


def test_smt_model_only_on_get_model(tmp_path, capsys):
    p = tmp_path / "q.smt2"
    p.write_text(SMT)
    code, out, _ = run(capsys, str(p))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "optimal 3"
    assert "(x 3)" in out

    q = tmp_path / "nomodel.smt2"
    q.write_text(SMT.replace("(get-model)", ""))
    code, out, _ = run(capsys, str(q))
    assert code == EXIT_OK
    assert out.strip() == "optimal 3"


def test_smt_maximize_prints_original_sense_value(tmp_path, capsys):
    p = tmp_path / "mx.smt2"
    p.write_text(
        """
        (declare-const x Int)
        (assert (>= x 0)) (assert (<= x 7))
        (maximize x)
        """
    )
    code, out, _ = run(capsys, str(p))
    assert code == EXIT_OK
    assert out.strip() == "optimal 7"


def test_format_sniffing_by_content(tmp_path, capsys):
    p = tmp_path / "mystery"
    p.write_text(SMT)
    code, out, _ = run(capsys, str(p))
    assert code == EXIT_OK and out.startswith("optimal")

    q = tmp_path / "mystery2"
    q.write_text(OPT)
    code, out, _ = run(capsys, str(q))
    assert code == EXIT_OK and out.startswith("optimal 4")


def test_explicit_format_overrides_suffix(tmp_path, capsys):
    p = tmp_path / "odd.imt"
    p.write_text(SMT)
    code, out, _ = run(capsys, str(p), "--format", "smt")
    assert code == EXIT_OK and out.startswith("optimal 3")


@pytest.mark.parametrize(
    "text, solve_code, line",
    [
        (OPT, EXIT_OK, "optimal 4"),
        (INFEASIBLE, EXIT_INFEASIBLE, "infeasible"),
        (UNBOUNDED, EXIT_UNBOUNDED, "unbounded"),
    ],
    ids=["optimal", "infeasible", "unbounded"],
)
def test_trace_then_replay(tmp_path, capsys, text, solve_code, line):
    p = tmp_path / "inst.imt"
    p.write_text(text)
    t = tmp_path / "run.trace"
    code, _, _ = run(capsys, str(p), "--trace", str(t))
    assert code == solve_code
    assert t.exists()

    code, out, _ = run(capsys, str(p), "--replay", str(t))
    assert code == EXIT_OK
    assert out.splitlines() == ["trace accepted", line]


TICKETS = """
[vars]
x int 0 10
y int 0 10
r1 int * *
r2 int * *
[funs]
f 1
[objective]
min x + y
[constraints]
r1 - r2 >= 1
[atoms]
r1 = f(x)
r2 = f(y)
"""
SRC = Path(__file__).resolve().parents[1] / "src"
# what replaying a trace may load: the kernel, its checks and closure, the trace reader and the front ends
REPLAY_MODULES = {
    "imtsolver",
    "imtsolver.certificates",
    "imtsolver.cli",
    "imtsolver.euf",
    "imtsolver.kernel",
    "imtsolver.model",
    "imtsolver.native",
    "imtsolver.smtlib",
    "imtsolver.trace",
}


def loaded_after(code: str, *argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``code`` in a fresh interpreter; returns the run and the imtsolver modules it loaded."""
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'imtsolver')))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done, set(json.loads(done.stdout.splitlines()[-1]))


def test_replay_loads_neither_the_engine_nor_the_lp(tmp_path, capsys):
    p = tmp_path / "tickets.imt"
    p.write_text(TICKETS)
    t = tmp_path / "run.trace"
    code, out, _ = run(capsys, str(p), "--trace", str(t))
    assert (code, out.splitlines()[0]) == (EXIT_OK, "optimal 1")

    done, loaded = loaded_after(
        "import sys; from imtsolver.cli import main; main(sys.argv[1:])", str(p), "--replay", str(t)
    )
    assert done.stdout.splitlines()[:2] == ["trace accepted", "optimal 1"]
    assert not loaded & {"imtsolver.engine", "imtsolver.lp", "imtsolver.oracle"}
    assert loaded == REPLAY_MODULES


ROOT = Path(__file__).resolve().parents[1]


def _count(text: str) -> int:
    return int(text.replace(",", ""))


def test_readme_counts_the_lines_replay_loads():
    text = (ROOT / "README.md").read_text()
    table = {name: _count(n) for name, n in re.findall(r"^\| `(\w+)\.py` \| ([\d,]+) \|$", text, re.M)}
    assert {"imtsolver" if name == "__init__" else f"imtsolver.{name}" for name in table} == REPLAY_MODULES
    lines = {name: (ROOT / "src" / "imtsolver" / f"{name}.py").read_text().count("\n") for name in table}
    assert table == lines
    (total,) = re.findall(r"That is ([\d,]+) lines\.", text)
    assert _count(total) == sum(lines.values())
    trusted_base = r"The rule checks are `kernel\.py`, `certificates\.py`\s+and the closure in `euf\.py`, ([\d,]+) lines"
    (trusted,) = re.findall(trusted_base, text)
    assert _count(trusted) == lines["kernel"] + lines["certificates"] + lines["euf"]


def test_the_package_root_loads_no_submodule():
    _, loaded = loaded_after("import imtsolver")
    assert loaded == {"imtsolver"}


def test_a_corrupted_cut_certificate_is_an_error(tmp_path, capsys, monkeypatch):
    # the engine does not check its own cuts; the kernel refuses the step
    real = engine.derive_gomory_cuts

    def corrupted(out):
        (cut, cert), *rest = real(out)
        (row, direction, mult), *entries = cert.entries
        return [(cut, CGCut(((row, direction, mult + 1), *entries))), *rest]

    monkeypatch.setattr(engine, "derive_gomory_cuts", corrupted)
    with pytest.raises(RuleViolation, match="learn"):
        engine.solve(parse_instance(OPT))
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    code, out, err = run(capsys, str(p))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: learn:") and "Traceback" not in err


def test_replay_rejects_tampering(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    t = tmp_path / "run.trace"
    run(capsys, str(p), "--trace", str(t))

    lines = t.read_text().splitlines()
    doctored = [lines[0]] + [l.replace('"rhs": 4', '"rhs": 3') for l in lines[1:]]
    t.write_text("\n".join(doctored) + "\n")
    code, out, err = run(capsys, str(p), "--replay", str(t))
    if code == EXIT_OK:
        # the edit may have missed every step; force a metadata mismatch instead
        other = tmp_path / "other.imt"
        other.write_text(OPT.replace(">= 7", ">= 9"))
        code, out, err = run(capsys, str(other), "--replay", str(t))
    assert code == EXIT_ERROR
    assert "trace rejected" in err or "error:" in err


def test_replay_against_wrong_instance_fails(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    t = tmp_path / "run.trace"
    run(capsys, str(p), "--trace", str(t))

    q = tmp_path / "inf.imt"
    q.write_text(INFEASIBLE)
    code, _, err = run(capsys, str(q), "--replay", str(t))
    assert code == EXIT_ERROR
    assert "error:" in err or "trace rejected" in err


def test_a_trace_that_is_not_utf8_is_an_error(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    t = tmp_path / "bad.trace"
    t.write_bytes(b'\xff{"format":"bct-trace","version":1}\n')
    code, _, err = run(capsys, str(p), "--replay", str(t))
    assert code == EXIT_ERROR
    assert err.startswith("error:")


def test_an_instance_that_is_not_utf8_is_an_error(tmp_path, capsys):
    p = tmp_path / "bad.imt"
    p.write_bytes(OPT.encode() + b"\xff\n")
    code, _, err = run(capsys, str(p))
    assert code == EXIT_ERROR
    assert err.startswith("error:")


def test_node_budget_exit(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(
        """
[vars]
a int 0 6
b int 0 6
c int 0 6

[objective]
min a + b + c

[constraints]
3a + 5b + 7c >= 31
2a - 3b + c <= 2
"""
    )
    code, out, err = run(capsys, str(p), "--node-budget", "1", "--cut-cap", "0")
    if code == EXIT_BUDGET:
        assert out.strip() == "unknown"
        assert "budget" in err.lower()
    else:
        # the root relaxation may already decide tiny instances
        assert code == EXIT_OK


# two nodes without cuts find the incumbent 2 and leave a node whose parent's bound is 0
GAP = """
[vars]
a int 0 1
b int 4 5
c int -2 3
d int -2 4
[objective]
min 3 a + 2 d
[constraints]
- a - 2 c >= -3
2 b + 3 d >= 9
"""

# GAP as a maximize script, its objective negated
GAP_MAX = """
(declare-const a Int)
(declare-const b Int)
(declare-const c Int)
(declare-const d Int)
(assert (and (<= 0 a) (<= a 1) (<= 4 b) (<= b 5) (<= (- 2) c) (<= c 3) (<= (- 2) d) (<= d 4)))
(assert (>= (- (- a) (* 2 c)) (- 3)))
(assert (>= (+ (* 2 b) (* 3 d)) 9))
(maximize (- (- (* 3 a)) (* 2 d)))
(check-sat)
"""


@pytest.mark.parametrize(
    "name, text, budget, line",
    [
        ("gap.imt", GAP, "2", "budget: node limit 2 reached; incumbent 2, bound 0\n"),
        ("gap.imt", GAP, "1", "budget: node limit 1 reached; incumbent +inf, bound 0\n"),
        ("gap.smt2", GAP_MAX, "2", "budget: node limit 2 reached; incumbent -2, bound 0\n"),
        ("gap.smt2", GAP_MAX, "1", "budget: node limit 1 reached; incumbent -inf, bound 0\n"),
    ],
    ids=["min", "min_no_incumbent", "max", "max_no_incumbent"],
)
def test_a_budget_stop_reports_the_incumbent_and_the_bound(tmp_path, capsys, name, text, budget, line):
    p = tmp_path / name
    p.write_text(text)
    code, out, err = run(capsys, str(p), "--node-budget", budget, "--cut-cap", "0")
    assert (code, out, err) == (EXIT_BUDGET, "unknown\n", line)
    # the optimum, 0 in both senses, lies between the bound and the incumbent
    code, out, _ = run(capsys, str(p))
    assert (code, out.split("\n")[0]) == (EXIT_OK, "optimal 0")


def test_a_budget_stop_bounds_the_optimum_from_below():
    rng = random.Random(5)
    stops = 0
    for _ in range(200):
        inst = random_instance(rng)
        result = engine.solve(inst)
        for budget in range(1, 4):
            try:
                engine.solve(inst, engine.Config(node_limit=budget))
            except engine.EngineLimit as exc:
                assert exc.bound <= result.value <= exc.incumbent
                stops += 1
    assert stops > 20


# the chain r0 > r1 > r2 with r_i = f(x_i) forces the x_i apart; five nodes do not decide it
CHAIN = """
[vars]
x0 int 0 2
x1 int 0 2
x2 int 0 2
r0 int * *
r1 int * *
r2 int * *
[funs]
f 1
[objective]
min x0 + x1 + x2
[constraints]
r0 - r1 >= 1
r1 - r2 >= 1
[atoms]
r0 = f(x0)
r1 = f(x1)
r2 = f(x2)
"""


def test_a_budget_stop_leaves_a_replayable_prefix(tmp_path, capsys):
    p, t = tmp_path / "chain.imt", tmp_path / "prefix.trace"
    p.write_text(CHAIN)
    code, out, err = run(capsys, str(p), "--node-budget", "5", "--trace", str(t))
    assert (code, out) == (EXIT_BUDGET, "unknown\n")
    assert "budget" in err
    assert t.exists()
    # the prefix is accepted, and a non-final state reports no status
    code, out, _ = run(capsys, str(p), "--replay", str(t))
    assert (code, out) == (EXIT_OK, "trace accepted\n")


def test_oracle_check_passes_on_small_instance(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    code, out, _ = run(capsys, str(p), "--oracle-check")
    assert code == EXIT_OK
    assert out.startswith("optimal 4")


def test_default_bound_native(tmp_path, capsys):
    p = tmp_path / "open.imt"
    p.write_text(
        """
[vars]
x int * *

[objective]
min x

[constraints]
x >= -100
"""
    )
    code, out, _ = run(capsys, str(p), "--default-bound", "5")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "optimal -5"


def test_default_bound_smt(tmp_path, capsys):
    p = tmp_path / "open.smt2"
    p.write_text(
        "(declare-const x Int)\n(assert (or (>= x 4) (<= x 0)))\n(minimize x)\n"
    )
    code, _, err = run(capsys, str(p))
    assert code == EXIT_ERROR and "error:" in err
    code, out, _ = run(capsys, str(p), "--default-bound", "6")
    assert code == EXIT_OK
    assert out.strip() == "optimal -6"


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "/nonexistent/file.imt")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_parse_error_is_an_error(tmp_path, capsys):
    p = tmp_path / "bad.imt"
    p.write_text("[vars]\nx int 0\n")
    code, _, err = run(capsys, str(p))
    assert code == EXIT_ERROR
    assert "error:" in err


def test_unbounded_ray_through_interface_vars_is_an_error(tmp_path, capsys):
    # not a budget running out: no budget would let the engine certify it
    p = tmp_path / "ray.imt"
    p.write_text(
        """
[vars]
x int * *
r int * *

[funs]
f 1

[objective]
min x

[constraints]
x <= 5

[atoms]
r = f(x)
"""
    )
    code, out, err = run(capsys, str(p))
    assert code == EXIT_ERROR
    assert out.strip() != "unknown"
    assert "error:" in err and "interface variables" in err


def test_runs_are_deterministic(tmp_path, capsys):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    _, out1, _ = run(capsys, str(p))
    _, out2, _ = run(capsys, str(p))
    assert out1 == out2


# two rows that render alike: the variable |2 x| prints as 2 x
SAME_TEXT = """
[vars]
x int 0 1
|2 x| int 0 2
y int * 5

[objective]
min y

[constraints]
2 x + y >= 3
|2 x| + y >= 3
"""


def test_trace_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    p = tmp_path / "same_text.imt"
    p.write_text(SAME_TEXT)
    traces = set()
    for seed in range(12):
        t = tmp_path / f"seed{seed}.trace"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)}
        done = subprocess.run(
            [sys.executable, "-m", "imtsolver.cli", str(p), "--trace", str(t)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout.splitlines()[0]) == (EXIT_OK, "optimal 1"), done.stderr
        traces.add(t.read_bytes())
    assert len(traces) == 1


@pytest.mark.parametrize("option", ["--node-budget", "--cut-cap", "--default-bound"])
def test_a_negative_count_is_a_usage_error(tmp_path, capsys, option):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    with pytest.raises(SystemExit) as exc:
        main([str(p), option, "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected a non-negative integer, got '-3'" in captured.err


@pytest.mark.parametrize("argv", [["--node-budget", "x"], ["--seed", "1"], []], ids=["not_a_number", "seed", "no_file"])
def test_usage_errors_exit_2(tmp_path, capsys, argv):
    p = tmp_path / "opt.imt"
    p.write_text(OPT)
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(p)] if argv else [])
    assert exc.value.code == 2
    assert "usage: imt-solve" in capsys.readouterr().err


def test_deeply_nested_smt_script_is_an_error(tmp_path, capsys):
    p = tmp_path / "deep.smt2"
    p.write_text("(declare-const p Bool)\n(assert " + "(not " * 5000 + "p" + ")" * 5000 + ")\n(check-sat)\n")
    code, out, err = run(capsys, str(p))
    assert code == EXIT_ERROR
    assert err.startswith("error:") and "nested deeper" in err
    assert "Traceback" not in err and not out


# the most digits Python converts between an int and its text; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts ints of any length")
@pytest.mark.parametrize(
    "name, text",
    [
        ("bound.imt", "[vars]\nx int 0 {big}\n"),
        ("bound.smt2", "(declare-const x Int)\n(assert (>= x {big}))\n(check-sat)\n"),
        ("product.smt2", "(declare-const x Int)\n(assert (>= (* {half} {half} x) 1))\n(check-sat)\n"),
    ],
    ids=["native_literal", "smt_literal", "smt_product"],
)
def test_a_number_over_the_digit_limit_is_an_error_not_a_traceback(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text.format(big="9" * (DIGIT_LIMIT + 700), half="9" * (DIGIT_LIMIT - 1300)))
    done = subprocess.run(
        [sys.executable, "-m", "imtsolver.cli", str(p), "--trace", str(tmp_path / "out.trace")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert not done.stdout
