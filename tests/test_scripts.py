"""The scripts under ``scripts/`` run from a checkout, with no package installed."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gen import ladder_script
from imtsolver.engine import solve
from imtsolver.model import ObjValue
from imtsolver.smtlib import encode_script

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_random_suite.py", "--runs", "2"],
        ["banquet_demo.py"],
        ["trace_digest.py", "--workload", "cnf-band", "--seeds", "1"],
    ],
    ids=["run_random_suite", "banquet_demo", "trace_digest"],
)
def test_a_script_runs_without_pythonpath(tmp_path, argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


# the digest over the trace files of the benchmark's inputs at seed 1: a change to
# an instance's encoding, its canonical rows or the trace format changes this
# line, even when no verdict moves
TRACE_BYTES = {
    "cnf-band": "e1a5419be054f4058e3f2fc06c1c3ee010900e1cb1393a8cbfca68f7a866924e",
    "random-suite": "47ed8893fc47bd3367abf0da8ba613f430c30c7ed2a6fa6854161c129f4488b5",
}


# the verdicts the engine reaches on those inputs; a change that alters one of
# them changes the statuses line
@pytest.mark.parametrize(
    "workload, digest",
    [
        ("cnf-band", "c5ee1871a90147dfca7ae0d492689b6c9b99757960a7df67ac98838151f3f01a"),
        ("random-suite", "60edcc395e38b79605577234703dc96e9e9f1eb74d5404ac885770daf9ecf031"),
    ],
)
def test_trace_digest_pins_the_benchmark_verdicts(tmp_path, workload, digest):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "trace_digest.py"), "--workload", workload, "--seeds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert f"statuses {digest}" in done.stdout.splitlines()
    assert f"combined {TRACE_BYTES[workload]}" in done.stdout.splitlines()


def _trace_digest_module():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPTS / "trace_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_keeping(module, keep):
    read = module.read_trace

    def read_part(path, instance):
        digest, steps = read(path, instance)
        return digest, steps[keep]

    return read_part


@pytest.mark.parametrize(
    "broken, message",
    [
        ("last_step_lost", "the replayed trace does not reach a final state"),
        ("first_step_lost", "the trace does not replay: step 0: "),
        ("other_verdict", "replay verdict unbounded -inf differs from the solve's "),
    ],
    ids=["last_step_lost", "first_step_lost", "other_verdict"],
)
def test_trace_digest_exits_1_naming_an_input_whose_trace_does_not_replay_to_its_verdict(
    monkeypatch, capsys, broken, message
):
    module = _trace_digest_module()
    if broken == "other_verdict":
        monkeypatch.setattr(module, "verdict", lambda instance, state: ("unbounded", ObjValue.neg_inf()))
    else:
        keep = slice(None, -1) if broken == "last_step_lost" else slice(1, None)
        monkeypatch.setattr(module, "read_trace", _read_keeping(module, keep))
    assert module.main(["--workload", "cnf-band", "--seeds", "2", "--size", "smoke"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cnf-band seed 2 input 0: {message}")
    assert "statuses" not in out


def test_trace_digest_finds_every_learned_row_cited_on_cnf_band(capsys):
    assert _trace_digest_module().main(["--workload", "cnf-band", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4].startswith("rules ")
    assert lines[-3] == "uncited 0"
    assert lines[-2].startswith("statuses ")


def test_uncited_counts_the_learns_no_later_certificate_cites():
    module = _trace_digest_module()
    steps = solve(encode_script(ladder_script(10, 1)).instance).steps
    learns = [i for i, s in enumerate(steps) if s.rule == "learn"]
    assert learns and module.uncited(steps) == 0
    # a learn moved to the end is cited by no later step
    i = learns[0]
    assert module.uncited(steps[:i] + steps[i + 1 :] + (steps[i],)) == 1
