import json
import os
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
    _, out1, _ = run(capsys, str(p), "--seed", "1")
    _, out2, _ = run(capsys, str(p), "--seed", "2")
    assert out1 == out2


def test_deeply_nested_smt_script_is_an_error(tmp_path, capsys):
    p = tmp_path / "deep.smt2"
    p.write_text("(declare-const p Bool)\n(assert " + "(not " * 5000 + "p" + ")" * 5000 + ")\n(check-sat)\n")
    code, out, err = run(capsys, str(p))
    assert code == EXIT_ERROR
    assert err.startswith("error:") and "nested deeper" in err
    assert "Traceback" not in err and not out
