"""Benchmark of spinaccess: three workloads, each output checked apart from the program.

Run from the root of a checkout (the package is loaded from ``src``):

    python3 bench/run.py --workload cone-sweep --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory):
    cone-sweep      classify_subspace + rank_drop_certificate per subspace
    mc-exponential  mc_validate on two exponential-family models
    cli-session     each README CLI example as a cold process

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Times are in seconds of a reference host (see
CALIBRATION_REF_S).  The exit code is 0 whenever a result is printed; a
failed check sets ``"correct": false``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import library
import reference as ref

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 3

#: Time of ``calibration`` on the reference host.  Every reported time is
#: scaled by CALIBRATION_REF_S / (median calibration of the run), so it reads
#: in seconds of that host: a shared host can change speed by 30% and more
#: within minutes, and the loop follows it.
CALIBRATION_REF_S = 0.0125

#: Cold ``python -X importtime`` runs per traced run.
IMPORT_REPEATS = 3
IMPORT_MODULES = ("spinaccess", "spinaccess.cones", "scipy.optimize", "scipy.linalg")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _load_package():
    """Import spinaccess from the checkout's own ``src``, nowhere else."""
    sys.path.insert(0, SRC)
    import spinaccess

    if os.path.dirname(os.path.dirname(os.path.abspath(spinaccess.__file__))) != SRC:
        sys.exit(f"error: spinaccess was imported from {spinaccess.__file__}, not {SRC}")
    return spinaccess


class Op:
    """One benchmark operation: a timed call and the check of its output."""

    def __init__(self, label, run, check, known_fault=False):
        self.label = label
        self.run = run            # () -> output
        self.check = check        # output -> list of problems
        self.known_fault = known_fault


# ---------------------------------------------------------------------------
# cone-sweep
# ---------------------------------------------------------------------------

def _witness_problems(basis6, witnesses, cone):
    """A witness must lie in the subspace and in its cone."""
    problems = []
    for w in witnesses:
        w = np.asarray(w, dtype=float)
        w6 = w if w.shape == (6,) else np.array(
            [w[0, 0], w[1, 1], w[2, 2], w[0, 1], w[0, 2], w[1, 2]])
        scale = max(1.0, float(np.linalg.norm(w6)))
        coef = np.linalg.lstsq(basis6.T, w6, rcond=None)[0]
        if np.linalg.norm(basis6.T @ coef - w6) > 1e-8 * scale:
            problems.append(f"{cone} witness outside the subspace")
        mat = ref.sym(w6) if cone == "CP" else ref.dissipation(ref.sym(w6))
        if np.linalg.eigvalsh(mat)[0] < -1e-9 * scale:
            problems.append(f"{cone} witness outside its cone")
    return problems


def cone_problems(rows, expected, got, witnesses_p, witnesses_cp):
    """Hand-derived values, cone inclusion, certificate logic and witnesses."""
    problems = [f"{key} = {got[key]!r}, expected {value!r}"
                for key, value in expected.items() if got[key] != value]
    n_p, n_cp, cert = got["n_p"], got["n_cp"], got["certificate"]
    if n_p < n_cp:
        problems.append(f"n_p = {n_p} < n_cp = {n_cp}")
    if (cert != "none") != (n_p > n_cp >= 1):
        problems.append(f"certificate {cert} with n_p = {n_p}, n_cp = {n_cp}")
    basis6 = np.asarray(rows, dtype=float)
    problems += _witness_problems(basis6, witnesses_p, "P")
    problems += _witness_problems(basis6, witnesses_cp, "CP")
    return problems


def cone_inputs(sa, seed, workdir):
    """The round's subspaces, in an order drawn from the seed."""
    cases = library.cases()
    order = np.random.default_rng(seed).permutation(len(cases))
    return [cases[i] + (sa.ParamSubspace.from_vec6(cases[i][2]),) for i in order]


def cone_ops(inputs):
    cones = sys.modules["spinaccess.cones"]

    def make(name, copy, rows, expected, v):
        def run():
            # keep the span the certificate computes, for the k_dim check
            inner, seen = cones.isotropic_span, []

            def capture(*args, **kwargs):
                seen.append(inner(*args, **kwargs))
                return seen[-1]

            cones.isotropic_span = capture
            try:
                analysis = cones.classify_subspace(v)
                cert = cones.rank_drop_certificate(v)
            finally:
                cones.isotropic_span = inner
            return analysis, cert, seen

        def check(out):
            analysis, cert, seen = out
            # a certificate that no longer asks for the span leaves k_dim to us
            k_dim = seen[-1].k_dim if seen else cones.isotropic_span(v).k_dim
            got = {"case": analysis.case_label, "n_p": analysis.n_p,
                   "n_cp": analysis.n_cp, "k_dim": k_dim, "certificate": cert}
            return cone_problems(rows, expected, got,
                                 analysis.witnesses_p, analysis.witnesses_cp)

        label = name + (" (transformed)" if copy else "")
        return Op(label, run, check, known_fault=copy)

    return [make(*case) for case in inputs]


# ---------------------------------------------------------------------------
# mc-exponential
# ---------------------------------------------------------------------------

MC_DT, MC_T, MC_SAMPLES, MC_B3, MC_U, MC_TAU = 0.005, 5.0, 2000, 1.0, 1.0, 0.1
MC_MODELS = (
    ("dephasing", {"w11": 0.0, "w13": 0.0, "w33": 1.0}),
    ("bivariate", {"w11": 1.0, "w13": 0.3, "w33": 1.0}),
)
#: Family-wise bound on |ensemble mean - exact mean| in standard errors.
MC_SE_BOUND = 5.0


def mc_problems(rep, v0, markov, exact):
    problems = []
    if np.abs(rep.mean_states[0] - v0).max() > 1e-12:
        problems.append("mean_states[0] != v0")
    if np.linalg.norm(rep.mean_states, axis=1).max() > 0.5 + 1e-12:
        problems.append("ensemble mean leaves the Bloch ball")
    if rep.markov_states.shape != markov.shape or \
            np.abs(rep.markov_states - markov).max() > 1e-9:
        problems.append("markov_states differ from the independent expm")
    if exact is not None:
        dev = np.abs(rep.mean_states - exact)
        ratio = (dev / np.maximum(rep.standard_error, 1e-300))[dev > 1e-12]
        if ratio.size and ratio.max() > MC_SE_BOUND:
            problems.append(f"mean {ratio.max():.2f} SE from the exact dephasing mean")
    return problems


def mc_inputs(sa, seed, workdir):
    """Initial state on the equator at a seeded angle, and the two models."""
    angle = 2.0 * np.pi * np.random.default_rng(seed).random()
    v0 = 0.5 * np.array([np.cos(angle), np.sin(angle), 0.0])
    models = [(name, amps, sa.CorrelationModel("exponential", tau=MC_TAU, **amps))
              for name, amps in MC_MODELS]
    return seed, v0, models


def mc_ops(inputs):
    stochastic = sys.modules["spinaccess.stochastic"]
    seed, v0, models = inputs
    n_steps = int(round(MC_T / MC_DT))
    ops = []
    for k, (name, amps, model) in enumerate(models):
        coeffs = ref.spin_field_coefficients("exponential", tau=MC_TAU, b3=MC_B3, **amps)
        hm, d = ref.spin_field_matrices(coeffs, MC_U)
        markov = ref.markov_states(-(hm + d), v0, MC_DT, n_steps)
        exact = None
        if amps["w11"] == amps["w13"] == 0.0:
            exact = ref.dephasing_mean("exponential", amps["w33"], MC_TAU, MC_B3,
                                       MC_U, v0, MC_DT, n_steps)

        def run(model=model, mc_seed=2 * seed + k):
            return stochastic.mc_validate(model, b3=MC_B3, u=MC_U, v0=v0, dt=MC_DT,
                                          t_final=MC_T, n_samples=MC_SAMPLES,
                                          seed=mc_seed)

        def check(rep, markov=markov, exact=exact):
            return mc_problems(rep, v0, markov, exact)

        ops.append(Op(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

README_CLASSIFY = {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]}
README_LIE = {"basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]],
              "h": [0, 0, 1.0], "theta_p": [1, 1, 0.7], "theta_cp": [1, 1, 0]}
README_EVOLVE = {"c": [1, 1, 1, 0, 0, 0], "h": [0, 0, 1], "v0": [0.5, 0, 0],
                 "schedule": [[1.0, 1.0], [0.5, 0.0]], "dt": 0.01}
README_MC = {"family": "white", "w11": 0.3, "w13": 0.1, "w33": 0.2, "b3": 1.0,
             "v0": [0.5, 0, 0], "dt": 0.005, "t_final": 5.0, "n_samples": 2000}
#: Paper values in the order of the reproduction report's first ten checks.
PAPER_DIMS = [9, 2, 9, 4, 4, 4, 2, 5, 9, 9]
#: 1e5 samples: 4e4 with the control on, 6e4 with it off.
LONG_SCHEDULE = [[400.0, 1.0], [600.0, 0.0]]


def cli_inputs(seed):
    """(invocation, command, input) of one session; the seeded inputs vary with seed."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    c = 2e-4 * (a @ a.T)
    w = rng.standard_normal(3)
    v0 = rng.uniform(0.2, 0.5) * w / np.linalg.norm(w)
    long = {"c": [c[0, 0], c[1, 1], c[2, 2], c[0, 1], c[0, 2], c[1, 2]],
            "h": rng.standard_normal(3).tolist(), "v0": v0.tolist(),
            "schedule": LONG_SCHEDULE, "dt": 0.01}
    w11, w33 = rng.uniform(0.2, 2.0, 2)
    spin = {"family": "exponential", "w11": w11, "w33": w33,
            "w13": rng.uniform(-0.9, 0.9) * np.sqrt(w11 * w33),
            "tau": rng.uniform(0.1, 1.0), "b3": rng.uniform(0.5, 2.0)}
    return [("classify", "classify", README_CLASSIFY), ("lie", "lie", README_LIE),
            ("evolve", "evolve", README_EVOLVE), ("evolve-long", "evolve", long),
            ("spin-field", "spin-field", spin), ("montecarlo", "montecarlo", README_MC),
            ("reproduce", "reproduce", None)]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _exit(code, expected=0):
    return [] if code == expected else [f"exit {code}, expected {expected}"]


def classify_check(data):
    _, _, label, n_p, n_cp, _, cert = next(
        p for p in library.PATTERNS if p[0] == "zero-22 full pattern")
    expected = {"case": label, "n_p": n_p, "n_cp": n_cp, "certificate": cert}

    def check(code, path):
        # the README basis sits on the cone boundary: flagged ambiguous, exit 2
        out = _read_json(path)
        problems = _exit(code, 2) + ([] if out["ambiguous"] is True else ["not ambiguous"])
        return problems + cone_problems(data["basis"], expected, out,
                                        out["witnesses_p"], out["witnesses_cp"])
    return check


def lie_check(data):
    basis = np.array([ref.sym(r) for r in data["basis"]])
    dims = []
    for theta in (data["theta_p"], data["theta_cp"]):
        d = ref.dissipation(np.einsum("k,kij->ij", np.asarray(theta, float), basis))
        dims.append(ref.lie_rank([d, ref.hamiltonian(data["h"]) + d]))

    def check(code, path):
        out = _read_json(path)
        got = [out["dim_p"], out["dim_cp"]]
        return _exit(code) + ([] if got == dims else [f"dims {got}, independent rank {dims}"])
    return check


def evolve_check(data):
    final = ref.propagate_segments(ref.sym(data["c"]), data["h"], data["v0"],
                                   data["schedule"])
    rows = 1 + sum(int(round(t / data["dt"])) for t, _ in data["schedule"])

    def check(code, path):
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        states = table[:, 1:4]
        purity = np.einsum("ij,ij->i", states, states)
        problems = _exit(code)
        if table.shape != (rows, 6):
            problems.append(f"{table.shape[0]} rows, expected {rows}")
        if np.abs(states[-1] - final).max() > 1e-9:
            problems.append("final state differs from the segment product")
        if np.abs(purity - table[:, 4]).max() > 1e-14 or np.diff(purity).max() > 1e-14:
            problems.append("purity increases along the trajectory")
        return problems
    return check


def spin_field_check(data):
    coeffs = ref.spin_field_coefficients(data["family"], data["w11"], data["w13"],
                                         data["w33"], data["tau"], data["b3"])
    hm, d = ref.spin_field_matrices(coeffs, 1.0)
    c = ref.sym([coeffs["c11"], 0.0, coeffs["c33"], coeffs["c12"], coeffs["c13"],
                 coeffs["c23"]])
    cp = bool(abs(coeffs["c12"]) < 1e-9 and abs(coeffs["c23"]) < 1e-9
              and np.linalg.eigvalsh(c)[0] >= -1e-9)
    pos = bool(np.linalg.eigvalsh(d)[0] >= -1e-9)

    def check(code, path):
        out = _read_json(path)
        problems = _exit(code)
        for key, value in coeffs.items():
            if abs(out["coefficients"][key] - value) > 1e-9 * max(1.0, abs(value)):
                problems.append(f"{key} = {out['coefficients'][key]}, quadrature {value}")
        if np.abs(np.array(out["hamiltonian_part"]) - hm).max() > 1e-9 or \
                np.abs(np.array(out["dissipation_part"]) - d).max() > 1e-9:
            problems.append("generator matrices differ from the quadrature coefficients")
        if (out["cp_admissible"], out["positivity_admissible"]) != (cp, pos):
            problems.append("admissibility flags differ from the eigenvalue test")
        return problems
    return check


def montecarlo_check(data):
    def check(code, path):
        out = _read_json(path)
        problems = _exit(code)
        if out["n_samples"] != data["n_samples"]:
            problems.append(f"n_samples = {out['n_samples']}")
        # within_3se is a pointwise test over ~3000 comparisons; not used here
        if not out["max_se_ratio"] <= MC_SE_BOUND:
            problems.append(f"max_se_ratio = {out['max_se_ratio']}")
        return problems
    return check


def reproduce_check(data):
    def check(code, path):
        out = _read_json(path)
        got = [c["computed"] for c in out["checks"][: len(PAPER_DIMS)]]
        problems = _exit(code) + ([] if out["all_passed"] else ["all_passed is false"])
        return problems + ([] if got == PAPER_DIMS else [f"dimensions {got}"])
    return check


CLI_CHECKS = {"classify": classify_check, "lie": lie_check, "evolve": evolve_check,
              "spin-field": spin_field_check, "montecarlo": montecarlo_check,
              "reproduce": reproduce_check}


def cli_inputs_written(sa, seed, workdir):
    invocations = cli_inputs(seed)
    for name, _, data in invocations:
        if data is not None:
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(data, fh)
    return seed, workdir, invocations


def cli_ops(inputs, runner):
    """``runner(argv) -> exit code``: cold processes, or ``cli.main`` in process."""
    seed, workdir, invocations = inputs
    ops = []
    for name, command, data in invocations:
        path = os.path.join(workdir, f"{name}.out")
        argv = [command, "--output", path, "--seed", str(seed)]
        if data is not None:
            argv += ["--input", os.path.join(workdir, f"{name}.json")]
        check = CLI_CHECKS[command](data)
        ops.append(Op(name, lambda argv=argv: runner(argv),
                      lambda code, check=check, path=path: check(code, path)))
    return ops


class ColdProcesses:
    """Runs ``python -m spinaccess.cli`` per invocation and keeps the peak RSS."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.peak_rss_kb = 0

    def __call__(self, argv):
        with open(os.path.join(self.workdir, "stderr.txt"), "ab") as err:
            proc = subprocess.Popen([sys.executable, "-m", "spinaccess.cli", *argv],
                                    cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode


# ---------------------------------------------------------------------------
# running and measuring
# ---------------------------------------------------------------------------

INPUTS = {"cone-sweep": cone_inputs, "mc-exponential": mc_inputs,
          "cli-session": cli_inputs_written}


def build_ops(workload, inputs, cold=None):
    """The round's operations; cli-session runs cold processes unless ``cold`` is None."""
    if workload == "cone-sweep":
        return cone_ops(inputs)
    if workload == "mc-exponential":
        return mc_ops(inputs)
    if cold is not None:
        return cli_ops(inputs, cold)
    from spinaccess import cli

    return cli_ops(inputs, lambda argv: cli.main(argv))


def calibration_loop():
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def calibration():
    """Median time of five calibration loops."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Operation times, counts, host calibrations and the problems found by the checks."""

    def __init__(self):
        self.times = []
        self.labels = []
        self.calibrations = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def round(self, ops, before=None):
        for op in ops:
            if before is not None:
                before(op)
            start = time.perf_counter()
            out = op.run()
            self.times.append(time.perf_counter() - start)
            self.labels.append(op.label)
            self.attempted += 1
            self.calibrations.append(calibration())
            problems = op.check(out)
            if problems:
                self.failed += 1
                self.correct &= op.known_fault
                self.problems.append({"op": op.label, "known_fault": op.known_fault,
                                      "problems": problems})
        self.rounds += 1

    def until(self, ops, seconds, before=None):
        """Whole rounds until ``seconds`` have passed, at least one."""
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < seconds:
            self.round(ops, before)

    @property
    def wall_s(self):
        """Operation time per round."""
        return sum(self.times) / self.rounds

    @property
    def scale(self):
        """Factor from this run's seconds to seconds of the reference host."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)


def setup_times(workload, seed, tally):
    """Wall time of fresh interpreters that import spinaccess and build inputs."""
    out = []
    for _ in range(SETUP_REPEATS):
        tally.calibrations.append(calibration())
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, env=_env(), check=True)
        out.append(time.perf_counter() - start)
    return out


def import_times():
    """Cumulative import time per module from ``python -X importtime``, median of runs."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spinaccess"],
                             cwd=ROOT, env=_env(), capture_output=True, text=True,
                             check=True)
        seen = {}
        for line in res.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples and parts[1].isdigit():
                seen[parts[2]] = int(parts[1]) * 1e-6
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, workdir):
    tally = Tally()
    setup = setup_times(workload, seed, tally)
    sa = _load_package()
    cold = ColdProcesses(workdir) if workload == "cli-session" else None
    ops = build_ops(workload, INPUTS[workload](sa, seed, workdir), cold)
    tally.until(ops, seconds)
    rss_kb = cold.peak_rss_kb if cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {"setup_s": statistics.median(setup), "wall_s": tally.wall_s,
           "op_s": statistics.median(tally.times)}
    metrics = {name: metric(value * tally.scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = metric(rss_kb / 1024.0, "MB")
    return tally, metrics, None


#: Per-layer metrics: (printed name, span name, "self_s" | "calls" | work key).
LAYER_METRICS = [
    ("cones.classify_subspace.self_s", "cones.classify_subspace", "self_s"),
    ("cones.classify_subspace.calls", "cones.classify_subspace", "calls"),
    ("cones.isotropic_span.self_s", "cones.isotropic_span", "self_s"),
    ("cones.isotropic_span.calls", "cones.isotropic_span", "calls"),
    ("cones.rank_drop_certificate.self_s", "cones.rank_drop_certificate", "self_s"),
    ("cones.rank_drop_certificate.calls", "cones.rank_drop_certificate", "calls"),
    ("stochastic.mc_validate.self_s", "stochastic.mc_validate", "self_s"),
    ("stochastic.mc_validate.sample_steps", "stochastic.mc_validate", "sample_steps"),
    ("stochastic.family_lie_dimension.self_s", "stochastic.family_lie_dimension", "self_s"),
    ("dynamics.evolve_schedule.self_s", "dynamics.evolve_schedule", "self_s"),
    ("dynamics.evolve_schedule.samples", "dynamics.evolve_schedule", "samples"),
    ("liealg.lie_closure.self_s", "liealg.lie_closure", "self_s"),
    ("liealg.lie_closure.calls", "liealg.lie_closure", "calls"),
    ("reproduce.run_reproduction.self_s", "reproduce.run_reproduction", "self_s"),
] + [(f"cli.{c}.self_s", f"cli.{c}", "self_s")
     for c in ("classify", "lie", "evolve", "spin-field", "montecarlo", "reproduce")]


def measure_traced(workload, seed, seconds, workdir):
    """Traced rounds in process; per-layer metrics per round."""
    import tracing

    imports = import_times()
    sa = _load_package()
    ops = build_ops(workload, INPUTS[workload](sa, seed, workdir))
    tracer = tracing.Tracer()
    tally = Tally()
    tracer.install()
    try:
        tally.until(ops, seconds, before=lambda op: setattr(tracer, "op", op.label))
    finally:
        tracer.uninstall()
    selfs = tracer.self_times()
    scale = tally.scale
    metrics = {}
    for name, span, kind in LAYER_METRICS:
        total, calls = selfs.get(span, (0.0, 0))
        if kind == "self_s":
            metrics[name] = metric(total * scale / tally.rounds, "s")
        else:
            count = calls if kind == "calls" else tracer.work.get(f"{span}.{kind}", 0)
            metrics[name] = metric(count / tally.rounds, "count")
    for mod, value in imports.items():
        metrics[f"import.{mod}_s"] = metric(value * scale, "s")
    # Host speed drifts by more than the tracer costs, so the overhead is the
    # measured cost of one wrapped call times the calls made, not a
    # difference of two timed rounds.
    op_time = sum(tally.times)
    metrics["trace.wall_s"] = metric(tally.wall_s * scale, "s")
    metrics["trace.overhead_pct"] = metric(
        100.0 * len(tracer.spans) * tracer.span_cost() / op_time, "%")
    metrics["trace.coverage_pct"] = metric(100.0 * tracer.covered() / op_time, "%")
    return tally, metrics, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinaccess", "__init__.py")):
        print(f"error: no spinaccess package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            sa = _load_package()
            INPUTS[args.workload](sa, args.seed, workdir)
            return 0
        run = measure_traced if args.trace else measure
        tally, metrics, tracer = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(result, rounds=tally.rounds, problems=tally.problems,
                       scale=tally.scale, calibrations=tally.calibrations,
                       op_times=list(zip(tally.labels, tally.times))), fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"trace-{tag}.json"))
    for p in tally.problems:
        print(f"{'known fault' if p['known_fault'] else 'FAILED'}: {p['op']}: "
              + "; ".join(p["problems"]))
    print(f"{args.workload}: {tally.attempted} attempted, {tally.failed} failed, "
          f"{tally.rounds} rounds, correct = {tally.correct}; times below are "
          f"this run's seconds x {tally.scale:.4f}, the host-speed scale")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
