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
