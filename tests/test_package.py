import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_optimize_unloaded():
    # no module of the package needs scipy.optimize, a slow import
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, spinaccess; print('scipy.optimize' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert res.stdout.strip() == "False"
