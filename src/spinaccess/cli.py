"""Command-line front end: JSON/CSV I/O around the analysis modules.

Exit-code contract: 0 success, 1 malformed input (including usage errors
such as an unknown flag), 2 domain error (including infeasible or
boundary-ambiguous classifications), 3 reproduction mismatch.
Every command is deterministic given its input file and seed.  Floats print
with 17 significant digits in CSV and shortest-round-trip form in JSON, so
outputs re-read losslessly.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from .cones import (FEAS_TOL, FEAS_TOL_RANGE, ParamSubspace, classify_subspace,
                    rank_drop_certificate)
from .dynamics import ControlSchedule, evolve_schedule
from .errors import SpinAccessError
from .generator import dissipation_from_kossakowski, sym_to_vec6, vec6_to_sym
from .liealg import compare_accessibility
from .reproduce import run_reproduction
from .stochastic import (CorrelationModel, build_spin_generator, coefficients,
                         cp_admissible, mc_validate, positivity_admissible)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3

#: Largest accepted ``draws`` in a classify input.  The certificate is exact
#: and draws nothing; the key is still validated so old input files keep
#: their meaning.
MAX_DRAWS = 10_000


class InputError(Exception):
    """Malformed command input; maps to exit code 1."""


def _strict_keys(data: dict, allowed: set, required: set, context: str) -> None:
    for key in data:
        if key not in allowed:
            raise InputError(f"unknown key {key!r} in {context}")
    for key in required:
        if key not in data:
            raise InputError(f"missing key {key!r} in {context}")


def _load_json(path: str, context: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {context} file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{context} file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError(f"{context} file must hold a JSON object")
    return data


def _number(value, name) -> float:
    """A finite float, or an input error naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InputError(f"field {name!r} must be a number, got {value!r}")
    if not np.isfinite(x):
        raise InputError(f"field {name!r} must be finite, got {x}")
    return x


def _integer(value, name) -> int:
    """A finite integral number as an int, or an input error naming the field."""
    x = _number(value, name)
    if x != int(x):
        raise InputError(f"field {name!r} must be an integer, got {value!r}")
    return int(x)


def _vector(data, name, length):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (length,):
        raise InputError(f"field {name!r} must be a list of {length} numbers")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"field {name!r} must hold finite numbers")
    return arr


def _subspace(data) -> ParamSubspace:
    if "basis" not in data:
        raise InputError("missing key 'basis' in input")
    rows = data["basis"]
    if not isinstance(rows, list) or not rows:
        raise InputError("field 'basis' must be a nonempty list of 6-vectors")
    try:
        return ParamSubspace.from_vec6([_vector(r, "basis row", 6) for r in rows])
    except ValueError as exc:
        raise InputError(f"field 'basis' is invalid: {exc}")


def _output(path):
    """The output file opened for writing, or stdout (left open) when path is None."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _write_json(obj, path):
    with _output(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


#: Rows formatted and written at a time, so the CSV text never exists whole.
CSV_CHUNK_ROWS = 4096

_CSV_ROW = ",".join(["%.17g"] * 6) + "\n"


def _write_csv_trajectory(traj, path):
    table = np.column_stack([traj.times, traj.states, traj.purities, traj.controls])
    with _output(path) as fh:
        fh.write("t,rho1,rho2,rho3,purity,u\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            block = table[start:start + CSV_CHUNK_ROWS]
            fh.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))


def _trajectory_dict(traj) -> dict:
    return {
        "times": traj.times.tolist(),
        "states": traj.states.tolist(),
        "purities": traj.purities.tolist(),
        "controls": traj.controls.tolist(),
        "violations": traj.violations.tolist(),
        "exited_ball": traj.exited_ball,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    data = _load_json(args.input, "input")
    _strict_keys(data, {"basis", "draws"}, {"basis"}, "input")
    v = _subspace(data)
    draws = _integer(data.get("draws", 32), "draws")
    if not 1 <= draws <= MAX_DRAWS:
        raise InputError(f"field 'draws' must be between 1 and {MAX_DRAWS}, got {draws}")
    analysis = classify_subspace(v, tol=args.tolerances.get("feas", FEAS_TOL))
    verdict = rank_drop_certificate(v)
    out = {
        "case": analysis.case_label,
        "n": analysis.n,
        "n_p": analysis.n_p,
        "n_cp": analysis.n_cp,
        "extent_p": analysis.extent_p,
        "extent_cp": analysis.extent_cp,
        "ambiguous": analysis.ambiguous,
        "certificate": verdict,
        "witnesses_p": [sym_to_vec6(w).tolist() for w in analysis.witnesses_p],
        "witnesses_cp": [sym_to_vec6(w).tolist() for w in analysis.witnesses_cp],
    }
    _write_json(out, args.output)
    return EXIT_DOMAIN if analysis.ambiguous else EXIT_OK


def cmd_lie(args) -> int:
    data = _load_json(args.input, "input")
    _strict_keys(data, {"basis", "h", "theta_p", "theta_cp"},
                 {"basis", "h", "theta_p", "theta_cp"}, "input")
    v = _subspace(data)
    h = _vector(data["h"], "h", 3)
    theta_p = _vector(data["theta_p"], "theta_p", v.n)
    theta_cp = _vector(data["theta_cp"], "theta_cp", v.n)
    report = compare_accessibility(v, h, theta_p, theta_cp)
    out = {
        "dim_p": report.dim_p,
        "dim_cp": report.dim_cp,
        "accessible_p": report.accessible_p,
        "accessible_cp": report.accessible_cp,
        "differ": report.differ,
        "basis_p": [b.reshape(9).tolist() for b in report.closure_p.basis],
        "basis_cp": [b.reshape(9).tolist() for b in report.closure_cp.basis],
    }
    _write_json(out, args.output)
    return EXIT_OK


def cmd_evolve(args) -> int:
    data = _load_json(args.input, "input")
    _strict_keys(data, {"c", "h", "v0", "schedule", "dt"},
                 {"c", "h", "v0", "schedule", "dt"}, "input")
    c = vec6_to_sym(_vector(data["c"], "c", 6))
    h = _vector(data["h"], "h", 3)
    v0 = _vector(data["v0"], "v0", 3)
    segments = data["schedule"]
    if not isinstance(segments, list):
        raise InputError("field 'schedule' must be a list of [duration, u] pairs")
    try:
        sched = ControlSchedule([(_number(s[0], "schedule"), _number(s[1], "schedule"))
                                 for s in segments])
    except (TypeError, IndexError, ValueError) as exc:
        raise InputError(f"field 'schedule' is invalid: {exc}")
    dt = _number(data["dt"], "dt")
    if dt <= 0:
        raise InputError("field 'dt' must be positive")
    traj = evolve_schedule(h, dissipation_from_kossakowski(c), sched, v0, dt)
    if traj.exited_ball:
        print("warning: trajectory left the Bloch ball (flagged)", file=sys.stderr)
    if args.format == "json":
        _write_json(_trajectory_dict(traj), args.output)
    else:
        _write_csv_trajectory(traj, args.output)
    return EXIT_OK


_MODEL_KEYS = {"family", "w11", "w13", "w33", "tau"}


def _model_from(data) -> CorrelationModel:
    if "family" not in data:
        raise InputError("missing key 'family' in input")
    return CorrelationModel(
        family=data["family"],
        **{key: _number(data.get(key, 0.0), key) for key in ("w11", "w13", "w33", "tau")},
    )


def cmd_spin_field(args) -> int:
    data = _load_json(args.input, "input")
    _strict_keys(data, _MODEL_KEYS | {"b3", "u"}, {"family", "b3"}, "input")
    model = _model_from(data)
    b3 = _number(data["b3"], "b3")
    u = _number(data.get("u", 1.0), "u")
    coeffs = coefficients(model, b3)
    h, d = build_spin_generator(coeffs, u)
    out = {
        "coefficients": {
            "c11": coeffs.c11, "c12": coeffs.c12, "c13": coeffs.c13,
            "c23": coeffs.c23, "c33": coeffs.c33,
            "omega1": coeffs.omega1, "omega2": coeffs.omega2,
            "omega3": coeffs.omega3, "b3": coeffs.b3,
        },
        "hamiltonian_part": h.tolist(),
        "dissipation_part": d.tolist(),
        "cp_admissible": cp_admissible(coeffs),
        "positivity_admissible": positivity_admissible(coeffs),
    }
    _write_json(out, args.output)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    data = _load_json(args.input, "input")
    allowed = _MODEL_KEYS | {"b3", "u", "v0", "dt", "t_final", "n_samples"}
    _strict_keys(data, allowed, {"family", "b3", "v0", "dt", "t_final", "n_samples"},
                 "input")
    model = _model_from(data)
    n_samples = _integer(data["n_samples"], "n_samples")
    if n_samples < 100:
        raise InputError(f"field 'n_samples' must be at least 100, got {n_samples}")
    report = mc_validate(
        model,
        b3=_number(data["b3"], "b3"),
        u=_number(data.get("u", 1.0), "u"),
        v0=_vector(data["v0"], "v0", 3),
        dt=_number(data["dt"], "dt"),
        t_final=_number(data["t_final"], "t_final"),
        n_samples=n_samples,
        seed=args.seed,
    )
    out = {
        "n_samples": report.n_samples,
        "max_deviation": report.max_deviation,
        "mean_deviation": report.mean_deviation,
        "max_se_ratio": report.max_se_ratio,
        "within_3se": report.within_3se,
        "max_standard_error": float(report.standard_error.max()),
    }
    _write_json(out, args.output)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    scale = 0.5 if args.perturb_convention else 1.0
    report = run_reproduction(seed=args.seed, dissipation_scale=scale)
    _write_json(report, args.output)
    if not report["all_passed"]:
        for check in report["checks"]:
            if not check["passed"]:
                print(f"mismatch: {check['name']}: expected {check['expected']}, "
                      f"computed {check['computed']}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

#: Accepted range of each ``--tol`` key.  ``feas`` is the relative depth a
#: face's central member needs to count as interior.
_TOL_RANGES = {"feas": FEAS_TOL_RANGE}

def _tolerance(key, val, where="") -> float:
    if key not in _TOL_RANGES:
        raise InputError(f"unknown tolerance key {key!r}{where}")
    lo, hi = _TOL_RANGES[key]
    x = _number(val, f"tolerance {key}")
    if not lo <= x <= hi:
        raise InputError(f"tolerance {key!r} must lie in [{lo:g}, {hi:g}], got {x:g}")
    return x


def _parse_tols(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--tol expects KEY=VAL, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key] = _tolerance(key, val)
    return out


def _apply_config(args) -> None:
    if args.config is None:
        return
    data = _load_json(args.config, "config")
    # tol and format only where the command takes the flag
    _strict_keys(data, {"input", "output", "seed"} | ({"tol", "format"} & set(vars(args))),
                 set(), "config")
    if "input" in data:
        args.input = data["input"]
    if "output" in data:
        args.output = data["output"]
    if "seed" in data:
        args.seed = _integer(data["seed"], "seed")
    if "format" in data:
        if data["format"] not in ("json", "csv"):
            raise InputError(f"config format must be json or csv, got {data['format']!r}")
        args.format = data["format"]
    if "tol" in data:
        if not isinstance(data["tol"], dict):
            raise InputError("config key 'tol' must be an object")
        for key, val in data["tol"].items():
            args.tolerances[key] = _tolerance(key, val, " in config")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, malformed input, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinaccess",
        description="Accessibility analysis of dissipative qubit control systems")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, needs_input in [
        ("classify", cmd_classify, True),
        ("lie", cmd_lie, True),
        ("evolve", cmd_evolve, True),
        ("spin-field", cmd_spin_field, True),
        ("montecarlo", cmd_montecarlo, True),
        ("reproduce", cmd_reproduce, False),
    ]:
        sub = subs.add_parser(name)
        if needs_input:
            sub.add_argument("--input", required=False, help="input JSON file")
        sub.add_argument("--output", default=None, help="output file (default: stdout)")
        sub.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
        if name == "classify":
            sub.add_argument("--tol", action="append", metavar="KEY=VAL",
                             help="override a named tolerance (repeatable)")
        if name == "evolve":
            sub.add_argument("--format", choices=("json", "csv"), default="csv",
                             help="trajectory output format")
        if name == "reproduce":
            sub.add_argument("--perturb-convention", action="store_true",
                             help="negative control: corrupt the dissipation "
                                  "normalization so every run must mismatch")
        sub.add_argument("--config", default=None,
                         help="JSON config overriding the flags above")
        sub.set_defaults(handler=fn, needs_input=needs_input)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.tolerances = _parse_tols(getattr(args, "tol", None))
        _apply_config(args)
        if args.needs_input and args.input is None:
            raise InputError("an --input file is required for this command")
        return args.handler(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpinAccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
