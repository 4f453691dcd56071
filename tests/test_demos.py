"""The demos print the output recorded in ``tests/demo_output``.

Each demo runs in a fresh interpreter from the root of the checkout, as
the README shows; a change that alters any printed byte fails here.  To
re-record after an intended change, run a demo and write its stdout to
``tests/demo_output/<demo name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import olie

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_recorded_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS] and len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(olie.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
