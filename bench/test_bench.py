"""Tests of the benchmark itself: ``python3 -m pytest bench``.

The smoke run puts every workload through both modes on tiny inputs and
fails if a metric named in BENCHMARK.json is missing, extra or in another
unit, so renaming a metric or a traced entry point breaks here first.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def test_smoke_reports_every_named_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_a_function_of_the_seed(workload):
    a = workloads.generate(workload, 7, "smoke")
    assert a == workloads.generate(workload, 7, "smoke")
    assert [c.text for c in a] != [c.text for c in workloads.generate(workload, 8, "smoke")]


def test_cnf_band_strata_are_filled():
    cases = workloads.generate("cnf-band", 3)
    verdicts = [workloads.reference(c)[0] for c in cases]
    assert len(cases) == 32
    assert verdicts[:28] == ["infeasible"] * 28
    assert verdicts[28:] == ["optimal"] * 4
    assert [len(c.data[1]) for c in cases] == [*range(18, 25)] * 4 + [19, 20, 22, 23]


def test_reference_enumeration_respects_atoms():
    # b = 0 switches the annotated x0 = x1 off, so the two must differ
    ilp = {
        "names": ["x0", "x1", "b"],
        "box": {"x0": (0, 1), "x1": (0, 1), "b": (0, 1)},
        "cons": [([("b", 1)], "<=", 0)],
        "atoms": [("eq", "x0", "x1", "b")],
        "funs": [],
        "objective": [("x0", 1), ("x1", 1)],
    }
    assert workloads._enumerate(ilp) == ("optimal", 1)
    # unannotated atoms all hold: x0 = x1 = f(x0) is a consistent function
    ilp["cons"] = [([("x0", 1), ("x1", -1)], "=", 0)]
    ilp["atoms"] = [("eq", "x0", "x1", None), ("fun", "x1", "f", "x0", None), ("fun", "x0", "f", "x0", None)]
    assert workloads._enumerate(ilp) == ("optimal", 0)
    # with b = 0 the annotated x0 = f(x0) must fail, yet x1 = f(x0) pins f(1) = 1
    ilp["cons"].append(([("x0", 1)], ">=", 1))
    ilp["atoms"] = [("fun", "x1", "f", "x0", None), ("fun", "x0", "f", "x0", "b"), ("eq", "x0", "x1", None)]
    ilp["cons"].append(([("b", 1)], "<=", 0))
    assert workloads._enumerate(ilp) == ("infeasible", None)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000) == 90
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(3) == 50
    assert run.tail_percentile(16) == 50
    for n in range(20, 100):
        q = run.tail_percentile(n)
        rank = -(-q * n // 100)
        assert n - rank >= 10
