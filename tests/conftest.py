"""Shared test helpers and the acceptance-summary hook."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaccycles

# (name, passed, detail) tuples appended by tests/test_acceptance.py
ACCEPTANCE_LOG: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_LOG.append((name, passed, detail))
    assert passed, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_LOG:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")


# pinned to one core before numpy loads, so that neither OpenBLAS nor the
# Philox draw (one share per core of the affinity set) starts a thread
_ONE_CORE_CHILD = """
import os, pickle, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from kaccycles import philox
from kaccycles.experiment import run_experiment, write_outputs
assert philox._THREADS == 1, philox._THREADS
with open(sys.argv[1], "rb") as fh:
    res = run_experiment(pickle.load(fh))
write_outputs(res, sys.argv[2])
with open(sys.argv[1], "wb") as fh:
    pickle.dump(res.counts, fh)
"""


def run_experiment_on_one_core(config, out_dir) -> dict:
    """``run_experiment(config)`` and ``write_outputs`` into out_dir, in a
    child process with OPENBLAS_NUM_THREADS=1 and a one-core affinity set.
    Returns the per-trial counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True)
    handoff = out_dir / "handoff.pkl"       # the config in, the counts out
    handoff.write_bytes(pickle.dumps(config))
    src = str(Path(kaccycles.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _ONE_CORE_CHILD, str(handoff), str(out_dir)],
                   env=env, check=True, capture_output=True, timeout=600)
    counts = pickle.loads(handoff.read_bytes())
    handoff.unlink()
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)
