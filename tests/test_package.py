import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy is a test dependency only: no command may load it
PRINT_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def run_fresh(code):
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return res.stdout.strip()


def test_import_leaves_scipy_optimize_unloaded():
    # no import of the package loads any scipy module, scipy.optimize included
    assert run_fresh(f"import sys, spinaccess; {PRINT_SCIPY}") == "[]"
    assert run_fresh(f"import sys, spinaccess.cli; {PRINT_SCIPY}") == "[]"


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs a cold process about 6 ms; only drawing noise loads it
    code = "import sys, {}; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    assert run_fresh(code.format("spinaccess")) == "[]"
    assert run_fresh(code.format("spinaccess.cli")) == "[]"


def test_commands_leave_scipy_unloaded(tmp_path):
    inputs = {
        "classify": {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                               [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]},
        "lie": {"basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
                "h": [0, 0, 1.0], "theta_p": [1, 1, 0.7], "theta_cp": [1, 1, 0]},
        "evolve": {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                   "schedule": [[1.0, 1.0], [0.5, 0.0]], "dt": 0.01},
        "spin-field": {"family": "exponential", "w11": 1.0, "w13": 0.3, "w33": 1.0,
                       "tau": 0.5, "b3": 1.0},
        "montecarlo": {"family": "exponential", "w11": 1.0, "w13": 0.3, "w33": 1.0,
                       "tau": 0.1, "b3": 1.0, "v0": [0.5, 0, 0], "dt": 0.005,
                       "t_final": 0.5, "n_samples": 100},
        "reproduce": None,
    }
    for command, data in inputs.items():
        argv = [command, "--output", str(tmp_path / f"{command}.out")]
        if data is not None:
            inp = tmp_path / f"{command}.json"
            inp.write_text(json.dumps(data))
            argv += ["--input", str(inp)]
        code = (f"import sys; from spinaccess.cli import main; "
                f"code = main({argv!r}); {PRINT_SCIPY}; print(code)")
        loaded, exit_code = run_fresh(code).splitlines()
        assert exit_code in ("0", "2"), command  # classify reports a boundary case
        assert loaded == "[]", command
