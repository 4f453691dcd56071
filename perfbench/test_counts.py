"""The count metrics of the traced run repeat exactly for a seed, so that
a later change can cite them as exact.

    python3 -m pytest perfbench/test_counts.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# the counts later changes may cite as exact
NAMED = (
    "fields.calls",
    "linalg.rref.cells",
    "algebra.bracket.calls",
    "identities.evaluate.calls",
    "algebra.ideal_closure.calls",
    "algebra.certify.calls",
)


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat(workload):
    first, second = traced(workload, 3), traced(workload, 3)
    counts = {k for k, m in first.items() if m["unit"] == "count"}
    assert set(NAMED) <= counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
