import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: One input per command, as in the README.
COMMAND_INPUTS = {
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


def run_command_fresh(command, tmp_path, report):
    """Run one command in a fresh process; ``report`` is printed after it,
    then the exit code."""
    argv = [command, "--output", str(tmp_path / f"{command}.out")]
    data = COMMAND_INPUTS[command]
    if data is not None:
        inp = tmp_path / f"{command}.json"
        inp.write_text(json.dumps(data))
        argv += ["--input", str(inp)]
    code = (f"import sys; from spinaccess.cli import main; "
            f"code = main({argv!r}); {report}; print(code)")
    out, exit_code = run_fresh(code).splitlines()
    assert exit_code in ("0", "2"), command  # classify reports a boundary case
    return out


def test_commands_leave_scipy_unloaded(tmp_path):
    for command in COMMAND_INPUTS:
        assert run_command_fresh(command, tmp_path, PRINT_SCIPY) == "[]", command


#: The package's modules each command loads: the ones it runs, and no other.
COMMAND_MODULES = {
    "classify": {"cli", "cones", "errors", "generator"},
    "lie": {"cli", "cones", "errors", "generator", "liealg"},
    "evolve": {"cli", "coherence", "dynamics", "errors", "generator", "workers"},
    "spin-field": {"cli", "cones", "errors", "generator", "stochastic"},
    "montecarlo": {"cli", "coherence", "dynamics", "errors", "generator", "stochastic",
                   "workers"},
    "reproduce": {"cli", "coherence", "cones", "dynamics", "errors", "generator",
                  "liealg", "reproduce", "stochastic", "workers"},
}

PRINT_MODULES = ("print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules "
                 "if m.startswith('spinaccess.'))))")


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(command, tmp_path):
    loaded = set(run_command_fresh(command, tmp_path, PRINT_MODULES).split())
    assert loaded == COMMAND_MODULES[command]


def test_import_loads_no_submodule():
    # every name and module is imported on first use, so importing the
    # package loads none of its modules and no numpy module beyond those
    # numpy itself loads
    def loaded(module, prefix):
        return set(run_fresh(f"import sys, {module}; print(' '.join(m for m in sys.modules "
                             f"if m.split('.')[0] == {prefix!r}))").split())

    assert loaded("spinaccess", "spinaccess") == {"spinaccess"}
    assert loaded("spinaccess", "numpy") <= loaded("numpy", "numpy")


#: The names the package exported when it imported every module, by module.
EXPORTS = {
    "coherence": "PAULI SIGMA_X SIGMA_Y SIGMA_Z coherence_to_density density_to_coherence "
                 "is_physical purity",
    "cones": "ConeAnalysis IsotropicSpan ParamSubspace classify_subspace "
             "is_completely_positive is_positive isotropic_span rank_drop_certificate",
    "dynamics": "ControlSchedule Trajectory evolve_schedule propagate sz_derivatives",
    "errors": "InfeasibleParametersError InvalidModelError InvalidStateError "
              "SpinAccessError StepSizeError UnphysicalStateError",
    "generator": "dissipation_from_kossakowski hamiltonian_matrix "
                 "kossakowski_from_dissipation lindblad_superop sym_to_vec6 vec6_to_sym",
    "liealg": "AccessibilityReport LieClosure accessibility_verdict bracket "
              "compare_accessibility lie_closure switching_generators",
    "reproduce": "run_reproduction",
    "stochastic": "CorrelationModel MCValidationReport SpinFieldCoefficients "
                  "build_spin_generator coefficient_matrix coefficients cp_admissible "
                  "family_lie_dimension family_lie_generators mc_sample mc_validate "
                  "positivity_admissible",
}

#: Its public names: the exports and the modules they loaded, ``workers`` too.
PUBLIC = sorted({name for names in EXPORTS.values() for name in names.split()}
                | set(EXPORTS) | {"workers"})


def test_exports_resolve_to_the_objects_of_their_modules():
    import importlib

    import spinaccess

    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"spinaccess.{module}")
        assert getattr(spinaccess, module) is mod
        for name in names.split():
            assert getattr(spinaccess, name) is getattr(mod, name), name
    assert sorted(spinaccess.__all__) == PUBLIC
    with pytest.raises(AttributeError, match="has no attribute 'expm'"):
        spinaccess.expm


def test_package_surface_is_unchanged_in_a_fresh_process():
    # each module an attribute after a bare import, as when all were loaded,
    # and the same dir(), star import and version
    code = ("import json, spinaccess; ns = {}; exec('from spinaccess import *', ns); "
            "print(json.dumps([spinaccess.cones.__name__, spinaccess.workers.__name__, "
            "[n for n in dir(spinaccess) if not n.startswith('_')], "
            "sorted(n for n in ns if n != '__builtins__'), "
            "'__version__' in dir(spinaccess), spinaccess.__version__]))")
    cones, workers, public, star, has_version, version = json.loads(run_fresh(code))
    assert (cones, workers) == ("spinaccess.cones", "spinaccess.workers")
    assert public == PUBLIC
    assert star == PUBLIC
    assert has_version and version == "0.1.0"
