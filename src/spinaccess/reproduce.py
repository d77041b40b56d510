"""Scripted reproduction of the headline results.

Runs the switched-system Lie-dimension table for the qubit generator
patterns, the correlation-family dimensions of the stochastic field model,
and the z-polarization contrast between completely positive and merely
positive dynamics.  Every check records its expected and computed values;
the suite passes only when all match.

The ``dissipation_scale`` knob deliberately corrupts the dissipation
normalization and exists solely as a negative control: any value other
than 1 must make the suite fail.  At 0.5 only the growth rate fails; the
switched dimensions cannot see it, as ``lie_closure`` normalizes generators.
"""

import numpy as np

from .dynamics import ControlSchedule, evolve_schedule, sz_derivatives
from .generator import dissipation_from_kossakowski, lindblad_superop, vec6_to_sym
from .liealg import lie_closure, switching_generators
from .stochastic import (CorrelationModel, build_spin_generator, coefficients,
                         family_lie_dimension, hamiltonian_vector)


def _qubit_pattern(c11, c22, c12=0.0, c13=0.0, c23=0.0):
    """Coefficient matrix of the switched-system study: c33 structurally zero."""
    return vec6_to_sym([c11, c22, 0.0, c12, c13, c23])


def _switched_dim(c, h):
    return lie_closure(switching_generators(h, dissipation_from_kossakowski(c))).dim


def _check(name, expected, computed):
    return {"name": name, "expected": expected, "computed": computed,
            "passed": expected == computed}


def _check_bound(name, description, computed, passed):
    return {"name": name, "expected": description, "computed": computed,
            "passed": bool(passed)}


def run_reproduction(seed: int = 0, dissipation_scale: float = 1.0) -> dict:
    """Run the full reproduction suite and return a JSON-ready report; it
    draws nothing, and ``seed`` is only recorded in the report."""
    checks = []
    z_axis = np.array([0.0, 0.0, 1.0])
    x_axis = np.array([1.0, 0.0, 0.0])

    # --- Lie dimensions of the switched qubit systems -----------------------
    # equal transversal rates, control along z: positivity reaches the full
    # algebra while complete positivity is stuck in a 2-dimensional one
    cp_equal = np.diag([1.0, 1.0, 0.0])
    p_equal = _qubit_pattern(1.0, 1.0, c13=0.3, c23=0.7)
    checks.append(_check("switched z-control equal rates, positive",
                         9, _switched_dim(p_equal, z_axis)))
    checks.append(_check("switched z-control equal rates, completely positive",
                         2, _switched_dim(cp_equal, z_axis)))

    cp_uneq = np.diag([0.9, 0.4, 0.0])
    p_uneq = _qubit_pattern(0.9, 0.4, c13=0.3, c23=0.7)
    checks.append(_check("switched z-control unequal rates, positive",
                         9, _switched_dim(p_uneq, z_axis)))
    checks.append(_check("switched z-control unequal rates, completely positive",
                         4, _switched_dim(cp_uneq, z_axis)))

    p_x = _qubit_pattern(0.9, 0.4, c23=0.7)
    checks.append(_check("switched x-control, positive",
                         4, _switched_dim(p_x, x_axis)))
    checks.append(_check("switched x-control, completely positive",
                         4, _switched_dim(cp_uneq, x_axis)))

    # --- correlation-family dimensions of the stochastic field model --------
    b3 = 1.0
    rows = [
        ("field noise along z only", CorrelationModel("white", w33=1.0), 2),
        ("uncorrelated transverse and z noise",
         CorrelationModel("white", w11=1.0, w33=1.0), 5),
        ("cross-correlated white noise",
         CorrelationModel("white", w11=1.0, w13=0.5, w33=1.0), 9),
    ]
    for name, model, expected in rows:
        checks.append(_check(f"family dimension, {name} (completely positive)",
                             expected,
                             family_lie_dimension(model, b3)))
    exp_model = CorrelationModel("exponential", w11=1.0, w13=0.2, w33=1.0, tau=0.5)
    checks.append(_check("family dimension, exponential correlations (positive)",
                         9, family_lie_dimension(exp_model, b3)))

    # --- z-polarization contrast from an x-polarized initial state ----------
    v0 = np.array([0.5, 0.0, 0.0])
    schedule = ControlSchedule([(10.0, 1.0)])

    cp_model = CorrelationModel("exponential", w33=1.0, tau=0.5)
    coeffs = coefficients(cp_model, b3)
    _, d = build_spin_generator(coeffs, u=1.0)
    h_vec = hamiltonian_vector(coeffs, u=1.0)
    traj = evolve_schedule(h_vec, dissipation_scale * d, schedule, v0, dt=0.01)
    max_rho3 = float(np.max(np.abs(traj.states[:, 2])))
    checks.append(_check_bound(
        "z polarization stays zero for admissible completely positive noise",
        "< 1e-10", max_rho3, max_rho3 < 1e-10))

    coeffs = coefficients(exp_model, b3)
    _, d = build_spin_generator(coeffs, u=1.0)
    h_vec = hamiltonian_vector(coeffs, u=1.0)
    traj = evolve_schedule(h_vec, dissipation_scale * d, schedule, v0, dt=0.01)
    peak_rho3 = float(np.max(traj.states[:, 2]))
    checks.append(_check_bound(
        "z polarization develops for positive-only exponential noise",
        "> 1e-4", peak_rho3, peak_rho3 > 1e-4))

    gen = lindblad_superop(h_vec, dissipation_scale * d, u=1.0)
    slope = float(sz_derivatives(gen, v0, 1)[0])
    target = 2.0 * exp_model.w13 * exp_model.tau / (1.0 + (2.0 * b3 * exp_model.tau) ** 2)
    checks.append(_check_bound(
        "initial z-polarization growth rate matches the closed form",
        f"{target!r} +- 1e-10", slope, abs(slope - target) < 1e-10))

    return {
        "seed": seed,
        "dissipation_scale": dissipation_scale,
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks)),
    }

