"""The benchmark's traced work counts, pinned byte for byte.

Each workload runs once at its minimum number of passes with the
development seed and the tracer on (``perfbench/run.py --workload W --seed 1
--seconds 0 --trace 1``), as ``perfbench/test_perfbench.py`` runs it.  The
counts it writes (rule and product counts, reduction calls, basis sizes,
span entries) depend on the inputs alone, so a change that should leave
the work as it is must leave ``.perfbench_out/W-seed1.counts.json`` equal to
``tests/data/W-seed1.counts.json``.  A change that means to alter the work
regenerates the copy with the command above and says why."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("workload", ["lemmas-all", "towers", "operations"])
def test_traced_counts_are_pinned(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    name = f"{workload}-seed1.counts.json"
    assert (ROOT / ".perfbench_out" / name).read_bytes() == (DATA / name).read_bytes()
