"""Each demo runs to the end: the demos call the public API the way a user
would, so a renamed or removed name breaks them here first."""

import os
import pathlib
import subprocess
import sys

import pytest

import qcurv

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    # the child imports the qcurv this process imported, however it was found
    src = os.path.dirname(os.path.dirname(qcurv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, str(path)], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
