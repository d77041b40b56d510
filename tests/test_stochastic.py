import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from spinaccess import (CorrelationModel, InvalidModelError, StepSizeError,
                        build_spin_generator, coefficients, cp_admissible,
                        family_lie_dimension, lie_closure, mc_sample,
                        mc_validate, positivity_admissible, propagate,
                        sz_derivatives)
from spinaccess.stochastic import (_cov_sqrt, _field_steps, _state_steps,
                                   _time_grid, hamiltonian_vector)


def quad_coefficients(w11, w13, w33, tau, b3):
    """Correlation integrals evaluated by adaptive quadrature (oracle)."""
    def corr(w):
        return lambda s: w * np.exp(-s / tau)

    upper = 60.0 * tau
    c11 = 2 * quad(lambda s: corr(w11)(s) * np.cos(2 * b3 * s), 0, upper)[0]
    c12 = quad(lambda s: corr(w11)(s) * np.sin(2 * b3 * s), 0, upper)[0]
    c13 = quad(lambda s: corr(w13)(s) * (np.cos(2 * b3 * s) + 1), 0, upper)[0]
    c23 = quad(lambda s: corr(w13)(s) * np.sin(2 * b3 * s), 0, upper)[0]
    c33 = 2 * quad(lambda s: corr(w33)(s), 0, upper)[0]
    om2 = quad(lambda s: corr(w13)(s) * (np.cos(2 * b3 * s) - 1), 0, upper)[0]
    return c11, c12, c13, c23, c33, om2


def test_model_validation():
    with pytest.raises(InvalidModelError):
        CorrelationModel("white", w11=1.0, w13=2.0, w33=1.0)  # not a covariance
    with pytest.raises(InvalidModelError):
        CorrelationModel("exponential", w11=1.0, tau=0.0)
    with pytest.raises(InvalidModelError):
        CorrelationModel("pink", w11=1.0)


def test_zero_family_has_no_coefficients():
    c = coefficients(CorrelationModel("zero"), b3=2.0)
    assert (c.c11, c.c12, c.c13, c.c23, c.c33) == (0, 0, 0, 0, 0)
    assert (c.omega1, c.omega2, c.omega3) == (0, 0, 0)


def test_white_family_coefficients():
    c = coefficients(CorrelationModel("white", w11=0.7, w33=0.4), b3=1.5)
    assert (c.c11, c.c33) == (0.7, 0.4)
    assert (c.c12, c.c13, c.c23, c.omega2) == (0, 0, 0, 0)


def test_exponential_zero_frequency_limit():
    w11, w13, w33, tau = 0.8, 0.3, 1.1, 0.6
    c = coefficients(CorrelationModel("exponential", w11=w11, w13=w13,
                                      w33=w33, tau=tau), b3=0.0)
    assert np.allclose([c.c11, c.c13, c.c33], [2 * w11 * tau, 2 * w13 * tau, 2 * w33 * tau])
    assert np.allclose([c.c12, c.c23, c.omega2], 0.0)


def test_closed_forms_match_quadrature():
    model = CorrelationModel("exponential", w11=1.0, w13=0.4, w33=0.9, tau=0.7)
    c = coefficients(model, b3=1.3)
    ref = quad_coefficients(1.0, 0.4, 0.9, 0.7, 1.3)
    assert np.allclose([c.c11, c.c12, c.c13, c.c23, c.c33, c.omega2], ref, atol=1e-10)


def test_derived_frequency_relations():
    c = coefficients(CorrelationModel("exponential", w11=1.0, w13=0.4, w33=0.9,
                                      tau=0.7), b3=1.3)
    assert c.omega1 == c.c23
    assert c.omega3 == -c.c12


def test_coefficient_parity_in_field():
    model = CorrelationModel("exponential", w11=1.0, w13=0.4, w33=0.9, tau=0.7)
    plus = coefficients(model, b3=1.3)
    minus = coefficients(model, b3=-1.3)
    assert np.allclose([minus.c11, minus.c13, minus.c33, minus.omega2],
                       [plus.c11, plus.c13, plus.c33, plus.omega2], atol=1e-12)
    assert np.allclose([minus.c12, minus.c23], [-plus.c12, -plus.c23], atol=1e-12)


def test_generator_structure_zero_family():
    h, d = build_spin_generator(coefficients(CorrelationModel("zero"), b3=1.4), u=1.0)
    assert np.allclose(d, 0.0)
    assert np.allclose(h, 2 * 1.4 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]]))
    h0, _ = build_spin_generator(coefficients(CorrelationModel("zero"), b3=1.4), u=0.0)
    assert np.allclose(h0, 0.0)


def test_generator_cross_coupling_slots():
    w13 = 0.3
    model = CorrelationModel("white", w11=1.0, w13=w13, w33=1.0)
    _, d = build_spin_generator(coefficients(model, b3=1.0), u=1.0)
    assert np.isclose(d[0, 2], -2 * w13)
    assert np.isclose(d[2, 0], -2 * w13)


def literal_spin_field_dissipation(coeffs):
    """D of the spin-field model written out by hand, with c22 = 0 folded in."""
    return 2.0 * np.array([
        [coeffs.c33, -coeffs.c12, -coeffs.c13],
        [-coeffs.c12, coeffs.c11 + coeffs.c33, -coeffs.c23],
        [-coeffs.c13, -coeffs.c23, coeffs.c11],
    ])


def test_spin_field_dissipation_matches_literal_bitwise():
    # tobytes() compares the signs of zero entries too
    rng = np.random.default_rng(30)
    for k in range(2000):
        family = ("zero", "white", "exponential")[k % 3]
        w11, w33 = rng.uniform(0.0, 2.0, 2) * (rng.random(2) < 0.8)
        w13 = rng.uniform(-1, 1) * np.sqrt(w11 * w33) * (rng.random() < 0.8)
        model = CorrelationModel(family, w11=w11, w13=w13, w33=w33,
                                 tau=rng.uniform(0.1, 2))
        b3 = 0.0 if k % 5 == 0 else rng.uniform(-2, 2)
        u = 0.0 if k % 7 == 0 else rng.uniform(-1, 1)
        coeffs = coefficients(model, b3)
        _, d = build_spin_generator(coeffs, u)
        assert d.tobytes() == literal_spin_field_dissipation(coeffs).tobytes(), k


def test_control_skips_noise_frequencies():
    model = CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.5)
    coeffs = coefficients(model, b3=1.0)
    h_on, d_on = build_spin_generator(coeffs, u=1.0)
    h_off, d_off = build_spin_generator(coeffs, u=0.0)
    assert np.allclose(d_on, d_off)  # dissipation unaffected by the switch
    assert np.isclose(h_on[0, 1] - h_off[0, 1], 2 * coeffs.b3)
    assert np.isclose(h_on[0, 2], h_off[0, 2])  # omega2 slot stays


def test_cp_admissibility():
    assert cp_admissible(coefficients(CorrelationModel("zero"), b3=1.0))
    exp_model = CorrelationModel("exponential", w11=1.0, w13=0.0, w33=1.0, tau=0.5)
    assert not cp_admissible(coefficients(exp_model, b3=1.0))
    white = CorrelationModel("white", w11=1.0, w13=0.5, w33=1.0)
    assert cp_admissible(coefficients(white, b3=1.0))
    assert positivity_admissible(coefficients(exp_model, b3=1.0))


def test_zero_frequency_makes_exponential_cp_admissible():
    model = CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.5)
    assert cp_admissible(coefficients(model, b3=0.0))


def test_polarization_stays_decoupled_without_cross_noise():
    for model in (CorrelationModel("white", w11=1.0, w33=0.5),
                  CorrelationModel("exponential", w33=1.0, tau=0.5)):
        h, d = build_spin_generator(coefficients(model, b3=1.0), u=1.0)
        gen = -(h + d)
        v = np.array([0.5, 0.0, 0.0])
        for t in np.linspace(0, 10, 101):
            assert abs(propagate(gen, v, t)[2]) < 1e-10


def test_polarization_derivatives_vanish_to_all_orders():
    for model in (CorrelationModel("white", w11=1.0, w33=0.5),
                  CorrelationModel("white", w33=1.0)):
        h, d = build_spin_generator(coefficients(model, b3=1.0), u=1.0)
        derivs = sz_derivatives(-(h + d), [0.5, 0.0, 0.0], 6)
        assert np.allclose(derivs, 0.0, atol=1e-14)


def test_initial_polarization_rate_closed_form():
    w13, w11, w33, tau, b3 = 0.2, 1.0, 1.0, 0.5, 1.0
    model = CorrelationModel("exponential", w11=w11, w13=w13, w33=w33, tau=tau)
    coeffs = coefficients(model, b3=b3)
    h, d = build_spin_generator(coeffs, u=1.0)
    rate = sz_derivatives(-(h + d), [0.5, 0, 0], 1)[0]
    assert np.isclose(rate, coeffs.omega2 + coeffs.c13, atol=1e-14)
    assert np.isclose(rate, 2 * w13 * tau / (1 + (2 * b3 * tau) ** 2), atol=1e-12)
    assert rate > 0


def test_family_lie_dimensions():
    b3 = 1.0
    assert family_lie_dimension(CorrelationModel("white", w33=1.0), b3) == 2
    assert family_lie_dimension(CorrelationModel("white", w11=1.0, w33=1.0), b3) == 5
    assert family_lie_dimension(
        CorrelationModel("white", w11=1.0, w13=0.5, w33=1.0), b3) == 9
    assert family_lie_dimension(
        CorrelationModel("exponential", w11=1.0, w13=0.2, w33=1.0, tau=0.5), b3) == 9


def test_single_draw_closure_is_smaller_than_family():
    # for a fixed calibrated model the closure carries one dissipation
    # direction only, so it stays one short of the family dimension
    model = CorrelationModel("white", w11=1.0, w33=1.0)
    h, d = build_spin_generator(coefficients(model, b3=1.0), u=1.0)
    assert lie_closure([d, h + d]).dim == 4


def test_mc_rejects_zero_family_and_coarse_steps():
    with pytest.raises(InvalidModelError):
        mc_sample(CorrelationModel("zero"), 1.0, 1.0, [0.5, 0, 0], 0.01, 1.0, 0)
    model = CorrelationModel("exponential", w11=1.0, w33=1.0, tau=0.1)
    with pytest.raises(StepSizeError):
        mc_sample(model, 1.0, 1.0, [0.5, 0, 0], 0.02, 1.0, 0)


def test_mc_degenerate_noise_is_pure_precession():
    traj = mc_sample(CorrelationModel("white"), b3=1.0, u=1.0, v0=[0.5, 0, 0],
                     dt=0.01, t_final=2.0, seed=4)
    # precession about z at angular rate 2 b3
    expected = 0.5 * np.cos(2.0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-10
    assert np.max(np.abs(traj.purities - 0.25)) < 1e-12


def test_mc_single_realization_is_unitary():
    model = CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.2)
    traj = mc_sample(model, b3=1.0, u=1.0, v0=[0.3, 0.2, 0.1], dt=0.01,
                     t_final=3.0, seed=11)
    assert np.max(np.abs(traj.purities - traj.purities[0])) < 1e-10


def test_mc_sample_is_deterministic():
    model = CorrelationModel("white", w11=0.5, w33=0.5)
    a = mc_sample(model, 1.0, 1.0, [0.5, 0, 0], 0.01, 1.0, seed=9)
    b = mc_sample(model, 1.0, 1.0, [0.5, 0, 0], 0.01, 1.0, seed=9)
    assert np.array_equal(a.states, b.states)


def test_mc_validate_degenerate_noise():
    report = mc_validate(CorrelationModel("white"), b3=1.0, u=1.0,
                         v0=[0.5, 0, 0], dt=0.01, t_final=3.0,
                         n_samples=100, seed=1)
    assert report.max_deviation < 1e-9


def test_mc_validate_requires_samples():
    with pytest.raises(ValueError):
        mc_validate(CorrelationModel("white", w11=0.1), 1.0, 1.0, [0.5, 0, 0],
                    0.01, 1.0, n_samples=99, seed=0)


def test_mc_white_noise_matches_markov_generator():
    model = CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2)
    report = mc_validate(model, b3=1.0, u=1.0, v0=[0.5, 0, 0], dt=0.01,
                         t_final=2.0, n_samples=400, seed=7)
    assert report.within_3se


def test_mc_exponential_weak_coupling_limit():
    # amplitudes and correlation time chosen inside the memoryless regime
    model = CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.1)
    report = mc_validate(model, b3=1.0, u=1.0, v0=[0.5, 0, 0], dt=0.005,
                         t_final=5.0, n_samples=2000, seed=3)
    assert report.max_deviation <= 0.02


def test_mc_strong_memory_is_flagged():
    model = CorrelationModel("exponential", w11=4.0, w13=0.5, w33=4.0, tau=2.0)
    report = mc_validate(model, b3=1.0, u=1.0, v0=[0.5, 0, 0], dt=0.05,
                         t_final=5.0, n_samples=400, seed=3)
    assert not report.within_3se
    assert report.max_deviation > 0.05


# ---------------------------------------------------------------------------
# the batched Monte Carlo stepping against the per-sample loops it replaced
# ---------------------------------------------------------------------------

def reference_noise_values(model, durations, seed, sample_indices):
    """Per-sample loop over the steps: field values (n, n_steps, 2)."""
    n_steps = len(durations)
    root = _cov_sqrt(model.covariance)
    betas = np.empty((len(sample_indices), n_steps, 2))
    if model.family == "white":
        scale = 1.0 / np.sqrt(durations)
        for row, k in enumerate(sample_indices):
            rng = np.random.default_rng([seed, k])
            z = rng.standard_normal((n_steps, 2))
            betas[row] = (z @ root.T) * scale[:, None]
        return betas
    phi = np.exp(-durations / model.tau)
    innov = np.sqrt(1.0 - phi**2)
    for row, k in enumerate(sample_indices):
        rng = np.random.default_rng([seed, k])
        z = rng.standard_normal((n_steps + 1, 2)) @ root.T
        beta = z[0]
        for j in range(n_steps):
            betas[row, j] = beta
            beta = phi[j] * beta + innov[j] * z[j + 1]
    return betas


def reference_rotate(states, h, dt):
    """Rodrigues step with np.cross."""
    omega = 2.0 * h
    speed = np.linalg.norm(omega, axis=1)
    theta = speed * dt
    small = speed < 1e-300
    axis = np.where(small[:, None], 0.0, omega / np.where(small, 1.0, speed)[:, None])
    cos_t = np.cos(theta)[:, None]
    sin_t = np.sin(theta)[:, None]
    cross = np.cross(axis, states)
    dot = np.einsum("ij,ij->i", axis, states)[:, None]
    return states * cos_t + cross * sin_t + axis * dot * (1.0 - cos_t)


def reference_ensemble_states(model, b3, u, v0, durations, seed, sample_indices):
    """All states of the requested samples on the grid: (n, n_steps + 1, 3)."""
    betas = reference_noise_values(model, durations, seed, sample_indices)
    n = len(sample_indices)
    states = np.tile(np.asarray(v0, dtype=float), (n, 1))
    out = np.empty((n, len(durations) + 1, 3))
    out[:, 0] = states
    for j, dt_j in enumerate(durations):
        h = np.zeros((n, 3))
        h[:, 0] = betas[:, j, 0]
        h[:, 2] = u * b3 + betas[:, j, 1]
        states = reference_rotate(states, h, dt_j)
        out[:, j + 1] = states
    return out


def reference_mean_and_se(model, b3, u, v0, durations, seed, n_samples):
    """Build each batch's states, then sum them: mean and standard error."""
    total = np.zeros((len(durations) + 1, 3))
    total_sq = np.zeros((len(durations) + 1, 3))
    for start in range(0, n_samples, 256):
        idx = range(start, min(start + 256, n_samples))
        states = reference_ensemble_states(model, b3, u, v0, durations, seed, idx)
        total += states.sum(axis=0)
        total_sq += (states**2).sum(axis=0)
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean**2, 0.0) * n_samples / (n_samples - 1)
    return mean, np.sqrt(var / n_samples)


MC_MODELS = [
    CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2),
    CorrelationModel("exponential", w33=1.0, tau=0.1),
    CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.1),
]


@pytest.mark.parametrize("model", MC_MODELS, ids=["white", "dephasing", "bivariate"])
def test_mc_stepping_matches_per_sample_reference(model):
    # a shortened final step (1.003 = 200 * 0.005 + 0.003), a batch that
    # starts at sample 256, and a validation run over two batches
    dt, t_final, v0, seed = 0.005, 1.003, [0.3, 0.2, 0.1], 4
    durations = _time_grid(dt, t_final)
    assert len(durations) == 201 and durations[-1] < dt
    idx = range(256, 300)
    fields = np.stack(list(_field_steps(model, durations, seed, idx)), axis=1)
    assert np.array_equal(fields, reference_noise_values(model, durations, seed, idx))
    states = np.stack(list(_state_steps(model, 1.0, 0.7, v0, durations, seed, idx)), axis=1)
    ref = reference_ensemble_states(model, 1.0, 0.7, v0, durations, seed, idx)
    assert np.array_equal(states, ref)

    traj = mc_sample(model, 1.0, 0.7, v0, dt, t_final, seed)
    ref = reference_ensemble_states(model, 1.0, 0.7, v0, durations, seed, [0])[0]
    assert np.array_equal(traj.states, ref)

    report = mc_validate(model, 1.0, 0.7, v0, dt, t_final, n_samples=300, seed=seed)
    mean, se = reference_mean_and_se(model, 1.0, 0.7, v0, durations, seed, 300)
    assert np.array_equal(report.mean_states, mean)
    assert np.array_equal(report.standard_error, se)


def test_mc_validate_peak_memory():
    # the benchmark's bivariate model at 2000 samples x 1000 steps: the
    # streamed sums hold one batch's noise draws, about 4 MB; holding a
    # batch's whole (256, 1001, 3) state array and its square adds 12 MB
    model = MC_MODELS[2]
    args = dict(b3=1.0, u=1.0, v0=[0.5, 0, 0], dt=0.005, seed=3)
    mc_validate(model, t_final=0.1, n_samples=100, **args)
    tracemalloc.start()
    try:
        mc_validate(model, t_final=5.0, n_samples=2000, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_hamiltonian_matches_literal_matrix():
    # H is Hmat of the field vector; the hand-written matrix it replaced is
    # kept here. Negation and the factor 2 are exact, so the entries agree to
    # the last bit (a zero z field may change the sign of a zero entry).
    rng = np.random.default_rng(40)
    for _ in range(2000):
        family = rng.choice(["zero", "white", "exponential"])
        w11, w33 = rng.uniform(0.0, 2.0, 2)
        model = CorrelationModel(family, w11=w11, w33=w33,
                                 w13=rng.uniform(-1, 1) * np.sqrt(w11 * w33),
                                 tau=rng.uniform(0.01, 2.0))
        coeffs = coefficients(model, b3=rng.choice([0.0, rng.uniform(-3, 3)]))
        u = rng.choice([0.0, 1.0, rng.uniform(-2, 2)])
        om1, om2, om3 = coeffs.omega1, coeffs.omega2, coeffs.omega3
        literal = 2.0 * np.array([
            [0.0, u * coeffs.b3 + om3, om2],
            [-u * coeffs.b3 - om3, 0.0, om1],
            [-om2, -om1, 0.0],
        ])
        h, _ = build_spin_generator(coeffs, u)
        assert np.array_equal(h, literal)
        assert np.array_equal(hamiltonian_vector(coeffs, u),
                              0.5 * np.array([literal[1, 2], literal[2, 0], literal[0, 1]]))
