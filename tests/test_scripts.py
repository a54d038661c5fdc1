"""The scripts under ``scripts/`` run from a checkout, with no package installed."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# the verdicts the engine reaches on the benchmark's inputs at seed 1; a change
# that alters one of them changes the line
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
