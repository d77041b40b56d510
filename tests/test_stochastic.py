import os
import time
import tracemalloc
import warnings
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from forking import assert_no_child_left, block_buffered_stdout, patch_cpus
from spinaccess import stochastic
from spinaccess import (ControlSchedule, CorrelationModel, InvalidModelError,
                        StepSizeError, build_spin_generator, coefficients,
                        cp_admissible, evolve_schedule,
                        family_lie_dimension, family_lie_generators,
                        hamiltonian_matrix, lie_closure,
                        mc_sample, mc_validate, positivity_admissible, propagate,
                        switching_generators, sz_derivatives)
from spinaccess.stochastic import (LOCKSTEP_SAMPLES, MAX_SAMPLE_STEPS, NOISE_CHUNK,
                                   ROTATION_CHUNK, _cov_sqrt, _sample_generators,
                                   _state_chunks, _stream_seeds, _time_grid,
                                   hamiltonian_vector)


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


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -0.5])
def test_exponential_family_needs_finite_positive_tau(tau):
    # a NaN tau used to construct and turn every coefficient but b3 into NaN
    with pytest.raises(InvalidModelError, match="0 < tau < inf"):
        CorrelationModel("exponential", w11=1.0, w13=0.2, w33=1.0, tau=tau)


def test_covariance_psd_test_is_scale_free():
    # the indefinite amplitudes (s, 2 s, s) are refused at every scale, and
    # the singular PSD ones (s, s, s) and (0.3 s, sqrt(0.06) s, 0.2 s)
    # accepted, also where the covariance's squared norm under- or overflows
    for scale in 10.0 ** np.arange(-300, 301):
        with pytest.raises(InvalidModelError, match="PSD"):
            CorrelationModel("white", w11=scale, w13=2 * scale, w33=scale)
        CorrelationModel("white", w11=scale, w13=scale, w33=scale)
        CorrelationModel("exponential", w11=0.3 * scale, w13=np.sqrt(0.06) * scale,
                         w33=0.2 * scale, tau=0.1)


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


def mp_coefficients(w11, w13, w33, tau, b3):
    """(c11, c12, c13, c23, c33, omega2) of the exponential family, in 60 digits."""
    with mpmath.workdps(60):
        tau, rate = mpmath.mpf(tau), 2 * mpmath.mpf(b3)
        den = 1 + (rate * tau) ** 2
        return [float(c) for c in (2 * w11 * tau / den, w11 * rate * tau**2 / den,
                                   w13 * tau * (1 / den + 1), w13 * rate * tau**2 / den,
                                   2 * w33 * tau, w13 * tau * (1 / den - 1))]


@pytest.mark.parametrize("b3", [1e300, -1e300, 1e155, 1e153, -3e160, 2.0**511,
                                float(np.nextafter(2.0**511, 0.0)), 1.0, 0.0, 1e-300])
@pytest.mark.parametrize("tau", [0.5, 1.0, 1e200, 1.2e154, 2.0**512, 1e300])
def test_exponential_coefficients_past_the_squaring_limit(b3, tau):
    # |2 b3 tau| or tau at or past 2**512, whose square is not a double, and
    # up to it: the closed forms to rounding, against 60-digit arithmetic;
    # 2 b3 = 2**512 at tau = 1 is the first product past the limit
    w11, w13, w33 = 1.0, 0.2, 0.9
    c = coefficients(CorrelationModel("exponential", w11=w11, w13=w13, w33=w33, tau=tau),
                     b3=b3)
    got = [c.c11, c.c12, c.c13, c.c23, c.c33, c.omega2]
    ref = mp_coefficients(w11, w13, w33, tau, b3)
    for name, x, r in zip(("c11", "c12", "c13", "c23", "c33", "omega2"), got, ref):
        assert abs(x - r) <= 1e-14 * abs(r) + 1e-307, (name, x, r)
    assert (c.omega1, c.omega3) == (c.c23, -c.c12)


def test_spin_generator_refuses_an_overflowing_hamiltonian():
    # 2 u b3 past the largest double: refused, where spin-field printed Infinity
    coeffs = coefficients(CorrelationModel("white", w11=1.0, w33=1.0), b3=1e308)
    with pytest.raises(ValueError, match="Hamiltonian matrix overflows"):
        build_spin_generator(coeffs, u=1.0)
    h, _ = build_spin_generator(coeffs, u=0.0)
    assert np.array_equal(h, np.zeros((3, 3)))


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
    # at b3 tau = 1e-6, lambda_min(C) is about -1e-12 |C|_F at any amplitude,
    # inside the feasibility tolerance: the verdict does not depend on w
    for w in (1.0, 1e4, 1e8):
        fast = CorrelationModel("exponential", w11=w, w33=w, tau=1e-6)
        assert cp_admissible(coefficients(fast, b3=1.0)), w


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
    assert family_lie_dimension(CorrelationModel("exponential", w33=1.0, tau=0.5), b3) == 2
    assert family_lie_dimension(
        CorrelationModel("exponential", w11=1.0, w33=1.0, tau=0.5), b3) == 5


def random_member_generators(model, b3, u, n_draws, seed):
    """Switched generator pairs of random members of the family: amplitudes
    rescaled independently with the zero pattern kept, and the correlation
    time, when there is one, rescaled too."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(n_draws):
        s1, s3 = rng.uniform(0.2, 5.0, size=2)
        draw = CorrelationModel(model.family, w11=model.w11 * s1,
                                w13=model.w13 * np.sqrt(s1 * s3) * rng.uniform(0.1, 0.95),
                                w33=model.w33 * s3, tau=model.tau * rng.uniform(0.5, 2.0))
        coeffs = coefficients(draw, b3)
        _, d = build_spin_generator(coeffs, u)
        gens.extend(switching_generators(hamiltonian_vector(coeffs, u), d))
    return gens


def span_rank(mats):
    rows = np.array([m.ravel() / np.linalg.norm(m) for m in mats if np.any(m)])
    return np.linalg.matrix_rank(rows, tol=1e-9)


FAMILY_PATTERNS = [dict(w33=1.0), dict(w11=1.0), dict(w11=1.0, w33=1.0),
                   dict(w11=1.0, w13=0.2, w33=1.0)]


def test_family_lie_dimension_equals_closure_of_random_members():
    # the family's generators span those of every member, and no more
    b3 = 1.0
    for family in ("white", "exponential"):
        for amps in FAMILY_PATTERNS:
            model = CorrelationModel(family, tau=0.5, **amps)
            gens = family_lie_generators(model, b3)
            members = random_member_generators(model, b3, 1.0, n_draws=20, seed=len(amps))
            assert span_rank(gens) == span_rank(members) == span_rank(gens + members)
            assert family_lie_dimension(model, b3) == lie_closure(members).dim


@pytest.mark.parametrize("family", ["white", "exponential"])
def test_family_lie_dimension_depends_only_on_the_zero_pattern(family):
    for amps in FAMILY_PATTERNS:
        dims = set()
        for scale1 in (0.3, 4.0):
            for scale3 in (0.5, 2.0):
                for tau in (0.05, 0.5, 3.0):
                    w11 = amps.get("w11", 0.0) * scale1
                    w33 = amps.get("w33", 0.0) * scale3
                    w13 = -0.9 * np.sqrt(w11 * w33) * (amps.get("w13", 0.0) != 0)
                    model = CorrelationModel(family, w11=w11, w13=w13, w33=w33, tau=tau)
                    dims.add(family_lie_dimension(model, 1.0))
        assert len(dims) == 1, (amps, dims)


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


@pytest.mark.parametrize("b3, u, v0, match", [
    (1.0, 1.0, [np.nan, 0.0, 0.0], "v0"),
    (1.0, 1.0, [0.5, np.inf, 0.0], "v0"),
    (1.0, 1.0, [0.5, 0.0], "v0"),
    (1.0, np.inf, [0.5, 0.0, 0.0], "b3 and u"),
    (np.nan, 1.0, [0.5, 0.0, 0.0], "b3 and u"),
], ids=["v0-nan", "v0-inf", "v0-short", "u-inf", "b3-nan"])
def test_mc_rejects_non_finite_inputs_before_sampling(monkeypatch, b3, u, v0, match):
    # refused up front, not after the whole ensemble has been drawn (nor, for
    # mc_sample, returned as an all-NaN trajectory)
    def no_sampling(*args):
        raise AssertionError("noise drawn for inputs that are refused")

    monkeypatch.setattr(stochastic, "_state_chunks", no_sampling)
    model = CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            mc_sample(model, b3, u, v0, 0.005, 1.0, seed=0)
        with pytest.raises(ValueError, match=match):
            mc_validate(model, b3, u, v0, 0.005, 1.0, n_samples=2000, seed=0)


def test_mc_zero_field_keeps_v0_bit_for_bit():
    # no noise and no mean field: every speed is below 1e-300, so every axis
    # is zero and every step the identity
    model, v0, seed = CorrelationModel("white"), [0.3, -0.2, 0.1], 4
    traj = mc_sample(model, b3=1.0, u=0.0, v0=v0, dt=0.005, t_final=1.003, seed=seed)
    assert len(traj.times) == 202
    assert np.array_equal(traj.states, np.tile(v0, (202, 1)))
    durations = np.diff(traj.times)
    idx = range(256, 300)
    assert np.array_equal(chunked_states(model, 1.0, 0.0, v0, durations, seed, idx),
                          reference_ensemble_states(model, 1.0, 0.0, v0, durations, seed, idx))


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


@pytest.mark.parametrize("dt, t_final", [(0.0, 1.0), (-0.01, 1.0), (0.01, 0.0),
                                         (0.01, -1.0), (float("nan"), 1.0)])
def test_time_grid_rejects_nonpositive_values(dt, t_final):
    with pytest.raises(ValueError, match="must be positive"):
        _time_grid(dt, t_final)


def test_mc_budget_charges_each_sample_a_noise_chunk():
    model = CorrelationModel("white", w11=0.1)
    # 200,000 one-step samples draw 200,000 noise chunks: 1.28e7 as charged
    with pytest.raises(ValueError, match="sample-steps"):
        mc_validate(model, 1.0, 1.0, [0.5, 0, 0], 0.01, 0.01, n_samples=200_000, seed=0)
    with pytest.raises(ValueError, match="sample-steps"):
        _time_grid(0.01, 0.01, n_samples=10**7)
    # the README and benchmark runs (2000 x 1000), 100 samples of 1e5 steps
    # and the most one-step samples admitted
    for dt, t_final, n_samples in ((0.005, 5.0, 2000), (1e-5, 1.0, 100),
                                   (0.01, 0.01, MAX_SAMPLE_STEPS // NOISE_CHUNK)):
        _time_grid(dt, t_final, n_samples)


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


def dephasing_sum_variance(w33, dt, tau, n_steps):
    """Var of sum_{j<m} beta_3(j), m = 0..n_steps, for the stationary OU chain
    held per step, of variance w33 and lag-d correlation phi^d, phi = exp(-dt/tau).

    Var(m + 1) = Var(m) + w33 (1 + 2 sum_{d=1}^{m} phi^d).
    """
    phi = np.exp(-dt / tau)
    lag_sums = np.concatenate([[0.0], np.cumsum(phi ** np.arange(1, n_steps + 1))])
    return np.concatenate([[0.0], np.cumsum(w33 * (1.0 + 2.0 * lag_sums[:-1]))])


def dephasing_mean(w33, tau, b3, u, v0, dt, n_steps):
    """Exact ensemble mean of the discretised exponential dephasing chain, (n_steps + 1, 3).

    Each realisation precesses about z by 2 (u b3 + beta_3) dt per step, so
    v_x + i v_y picks up exp(2i u b3 t) exp(2i dt sum beta_3), whose Gaussian
    average is exp(2i u b3 t) exp(-2 dt^2 Var sum beta_3); v_z is constant.
    """
    t = dt * np.arange(n_steps + 1)
    var = dephasing_sum_variance(w33, dt, tau, n_steps)
    z = (v0[0] + 1j * v0[1]) * np.exp(2j * u * b3 * t) * np.exp(-2.0 * dt**2 * var)
    return np.column_stack([z.real, z.imag, np.full(len(t), float(v0[2]))])


def test_mc_exponential_mean_matches_the_exact_dephasing_chain():
    # the exponential family against an exact mean rather than the Markovian
    # generator, whose bias at the weak-coupling test's amplitudes is 6-9 SE
    # at 8000 samples: that test shows neither a right sampler nor the
    # memoryless limit.  20 seeds, each judged family-wise at alpha = 0.05
    # (Sidak) over its 400 (time, component) pairs with a nonzero standard
    # error, about 3.83 SE; measured worst 0.6-2.8 SE.  The exact mean at
    # 2 w33, a sqrt(2) error in the field's scale, reads at least 8.7 SE at
    # every seed
    model = CorrelationModel("exponential", w33=1.0, tau=0.1)
    b3, u, v0, dt, n_steps = 1.0, 1.0, [0.5, 0.0, 0.0], 0.005, 200
    exact = dephasing_mean(1.0, 0.1, b3, u, v0, dt, n_steps)
    wrong = dephasing_mean(2.0, 0.1, b3, u, v0, dt, n_steps)
    bound = NormalDist().inv_cdf(1.0 - (1.0 - 0.95 ** (1.0 / 400)) / 2.0)
    worst, sensed = [], []
    for seed in range(20):
        report = mc_validate(model, b3, u, v0, dt, n_steps * dt, n_samples=400, seed=seed)
        assert len(report.times) == n_steps + 1
        compared = report.standard_error > 0.0
        assert np.count_nonzero(compared) == 400
        se = report.standard_error[compared]
        worst.append(np.max(np.abs(report.mean_states - exact)[compared] / se))
        sensed.append(np.max(np.abs(report.mean_states - wrong)[compared] / se))
    assert max(worst) <= bound, worst
    assert min(sensed) >= 8.7, sensed


def white_chain_mean(cov, b3, u, v0, dt, n_steps, nodes=80):
    """Exact ensemble mean of the white chain, (n_steps + 1, 3): E[R]^k v0.

    E[R] is one step's rotation averaged over the field (beta_1, beta_3) ~
    N(0, cov / dt) by a 2-D Gauss-Hermite rule of nodes x nodes; each
    column is the average image of a basis vector under ``reference_rotate``.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    weights = np.outer(w, w).ravel() / (2.0 * np.pi)
    z = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    beta = z @ np.linalg.cholesky(cov).T / np.sqrt(dt)
    h = np.column_stack([beta[:, 0], np.zeros(len(z)), u * b3 + beta[:, 1]])
    step = np.column_stack([weights @ reference_rotate(np.tile(e, (len(z), 1)), h, dt)
                            for e in np.eye(3)])
    states = [np.asarray(v0, dtype=float)]
    for _ in range(n_steps):
        states.append(step @ states[-1])
    return np.array(states)


def test_mc_white_mean_matches_the_exact_chain():
    # the README white model against its chain's exact mean, E[R]^k v0.
    # 80 x 80 nodes give one step's E[R] to 1.1e-16 of 120 x 120, and the
    # 200-step mean to 2e-14.  20 seeds, each judged family-wise at alpha =
    # 0.05 (Sidak) over its 600 (time, component) pairs with a nonzero
    # standard error, about 3.93 SE; measured worst 1.8-3.4 SE.  The exact
    # mean at twice the covariance, a sqrt(2) error in the field's scale,
    # reads at least 13.7 SE at every seed
    model = CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2)
    b3, u, v0, dt, n_steps = 1.0, 1.0, [0.5, 0.0, 0.0], 0.005, 200
    exact = white_chain_mean(model.covariance, b3, u, v0, dt, n_steps)
    wrong = white_chain_mean(2.0 * model.covariance, b3, u, v0, dt, n_steps)
    bound = NormalDist().inv_cdf(1.0 - (1.0 - 0.95 ** (1.0 / 600)) / 2.0)
    worst, sensed = [], []
    for seed in range(20):
        report = mc_validate(model, b3, u, v0, dt, n_steps * dt, n_samples=400, seed=seed)
        assert len(report.times) == n_steps + 1
        compared = report.standard_error > 0.0
        assert np.count_nonzero(compared) == 600
        se = report.standard_error[compared]
        worst.append(np.max(np.abs(report.mean_states - exact)[compared] / se))
        sensed.append(np.max(np.abs(report.mean_states - wrong)[compared] / se))
    assert max(worst) <= bound, worst
    assert min(sensed) >= 13.0, sensed


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
            betas[row] = (z[:, :1] * root[:, 0] + z[:, 1:] * root[:, 1]) * scale[:, None]
        return betas
    phi = np.exp(-durations / model.tau)
    innov = np.sqrt(1.0 - phi**2)
    for row, k in enumerate(sample_indices):
        rng = np.random.default_rng([seed, k])
        z = rng.standard_normal((n_steps + 1, 2))
        z = z[:, :1] * root[:, 0] + z[:, 1:] * root[:, 1]
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
    """Two-pass mean and standard error over all the reference states."""
    states = reference_ensemble_states(model, b3, u, v0, durations, seed, range(n_samples))
    return states.mean(axis=0), states.std(axis=0, ddof=1) / np.sqrt(n_samples)


def assert_standard_errors_close(se, ref):
    """1e-13 relative where the reference exceeds 1e-10, 1e-15 absolute elsewhere."""
    large = ref > 1e-10
    assert np.all(np.abs(se - ref)[large] <= 1e-13 * ref[large])
    assert np.all(np.abs(se - ref)[~large] <= 1e-15)


MC_MODELS = [
    CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2),
    CorrelationModel("exponential", w33=1.0, tau=0.1),
    CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.1),
]


def chunked_states(model, b3, u, v0, durations, seed, sample_indices):
    """The states at every grid time, (n, n_steps + 1, 3), from the lockstep ensemble."""
    return np.concatenate(list(_state_chunks(model, b3, u, v0, durations, seed,
                                             sample_indices))).transpose(2, 0, 1)


def assert_stepping_matches_reference(model, dt, t_final, n_samples):
    v0, seed = [0.3, 0.2, 0.1], 4
    durations = np.diff(_time_grid(dt, t_final))
    idx = range(256, 300)
    states = chunked_states(model, 1.0, 0.7, v0, durations, seed, idx)
    assert np.array_equal(states,
                          reference_ensemble_states(model, 1.0, 0.7, v0, durations, seed, idx))

    traj = mc_sample(model, 1.0, 0.7, v0, dt, t_final, seed)
    ref = reference_ensemble_states(model, 1.0, 0.7, v0, durations, seed, [0])[0]
    assert np.array_equal(traj.states, ref)

    report = mc_validate(model, 1.0, 0.7, v0, dt, t_final, n_samples=n_samples, seed=seed)
    mean, se = reference_mean_and_se(model, 1.0, 0.7, v0, durations, seed, n_samples)
    assert np.max(np.abs(report.mean_states - mean)) <= 1e-14
    assert_standard_errors_close(report.standard_error, se)


@pytest.mark.parametrize("model", MC_MODELS, ids=["white", "dephasing", "bivariate"])
def test_mc_stepping_matches_per_sample_reference(model):
    # a shortened final step (1.003 = 200 * 0.005 + 0.003), a batch that
    # starts at sample 256, and a validation run of 300 samples
    durations = np.diff(_time_grid(0.005, 1.003))
    assert len(durations) == 201 and durations[-1] < 0.005
    assert_stepping_matches_reference(model, 0.005, 1.003, n_samples=300)


@pytest.mark.parametrize("model", MC_MODELS, ids=["white", "dephasing", "bivariate"])
@pytest.mark.parametrize("n_samples", [700, LOCKSTEP_SAMPLES + 300])
def test_mc_validate_matches_reference_over_a_partial_sum_block(model, n_samples):
    # 700 samples run as one partial lockstep group; the larger ensemble
    # runs as a full group and a partial one, whose statistics are merged
    assert_stepping_matches_reference(model, 0.005, 0.203, n_samples=n_samples)


@pytest.mark.parametrize("model", [MC_MODELS[0], MC_MODELS[2]], ids=["white", "bivariate"])
@pytest.mark.parametrize("n_steps", [1, 2, NOISE_CHUNK, NOISE_CHUNK + 1,
                                     ROTATION_CHUNK + 1, 2 * NOISE_CHUNK + 1])
def test_mc_stepping_matches_reference_at_chunk_edges(model, n_steps):
    # grids of one step, and of one step past a noise or rotation chunk,
    # whose last chunk of fields holds one step
    dt = 0.005
    durations = np.diff(_time_grid(dt, n_steps * dt))
    assert len(durations) == n_steps
    assert_stepping_matches_reference(model, dt, n_steps * dt, n_samples=100)


@pytest.mark.parametrize("model", [MC_MODELS[0], MC_MODELS[2]], ids=["white", "bivariate"])
def test_mc_span_shorter_than_dt_takes_one_step(model):
    # a t_final far below dt is one step to its end, as evolve_schedule
    # samples a segment shorter than dt
    traj = mc_sample(model, 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 1e-13, seed=4)
    assert np.array_equal(traj.times, [0.0, 1e-13])
    report = mc_validate(model, 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 1e-13,
                         n_samples=100, seed=4)
    assert np.array_equal(report.times, [0.0, 1e-13])
    assert_stepping_matches_reference(model, 0.005, 1e-13, n_samples=100)


# ---------------------------------------------------------------------------
# the per-sample streams, seeded without a SeedSequence each
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**100])
def test_stream_seeds_match_numpy_seed_sequences(seed):
    # one to four seed words: with four, the entropy overflows numpy's pool
    # of four words and k is mixed in after it
    expected = [np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
                for k in range(3000)]
    assert np.array_equal(_stream_seeds(seed, range(3000)), expected)


@pytest.mark.parametrize("seed", [True, np.int64(5), np.uint64(2**64 - 1), 2**70 + 9,
                                  "12", [1, 2]],
                         ids=["bool", "int64", "uint64", "multi-word", "string", "sequence"])
def test_mc_takes_the_seeds_default_rng_takes(seed):
    idx = [0, 1, 255, 1023]
    for rng, k in zip(_sample_generators(seed, idx), idx):
        expected = np.random.default_rng([seed, k]).standard_normal(130)
        assert np.array_equal(rng.standard_normal(130), expected), k
    model, v0, dt, t_final = MC_MODELS[2], [0.3, 0.2, 0.1], 0.005, 0.103
    durations = np.diff(_time_grid(dt, t_final))
    traj = mc_sample(model, 1.0, 0.7, v0, dt, t_final, seed)
    ref = reference_ensemble_states(model, 1.0, 0.7, v0, durations, seed, [0])[0]
    assert np.array_equal(traj.states, ref)
    report = mc_validate(model, 1.0, 0.7, v0, dt, t_final, n_samples=100, seed=seed)
    mean, se = reference_mean_and_se(model, 1.0, 0.7, v0, durations, seed, 100)
    assert np.max(np.abs(report.mean_states - mean)) <= 1e-14
    assert_standard_errors_close(report.standard_error, se)


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5], ids=["-1", "-2**70", "1.5"])
def test_mc_refuses_the_seeds_default_rng_refuses_before_sampling(monkeypatch, seed):
    # numpy's own error type and message, before any noise is drawn; split
    # into 32-bit words by repeated shifts, a negative seed would never end
    with pytest.raises((ValueError, TypeError)) as refused:
        np.random.default_rng([seed, 0])

    def no_sampling(*args):
        raise AssertionError("noise drawn for a seed that is refused")

    monkeypatch.setattr(stochastic, "_state_chunks", no_sampling)
    model = MC_MODELS[2]
    for run in (lambda: mc_sample(model, 1.0, 1.0, [0.5, 0, 0], 0.005, 1.0, seed=seed),
                lambda: mc_validate(model, 1.0, 1.0, [0.5, 0, 0], 0.005, 1.0,
                                    n_samples=2000, seed=seed)):
        with pytest.raises(type(refused.value)) as exc:
            run()
        assert str(exc.value) == str(refused.value)
    with pytest.raises((OverflowError, TypeError)):
        _stream_seeds(seed, [0])


def test_mc_builds_no_seed_sequence_per_sample(monkeypatch):
    # two lockstep groups: the seed is checked by one SeedSequence, and no
    # generator is seeded through one
    built = []

    def spy(real):
        def construct(*args, **kwargs):
            built.append(real)
            return real(*args, **kwargs)
        return construct

    patch_cpus(monkeypatch, 1)  # both groups here, where the spy records
    monkeypatch.setattr(np.random, "SeedSequence", spy(np.random.SeedSequence))
    monkeypatch.setattr(np.random, "default_rng", spy(np.random.default_rng))
    mc_validate(MC_MODELS[2], 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 0.05,
                n_samples=LOCKSTEP_SAMPLES + 300, seed=6)
    assert len(built) == 1
    monkeypatch.undo()
    for rng in _sample_generators(6, range(3)):
        assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)


@pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e-6, 1.0, 1e6])
@pytest.mark.parametrize("dt, t_final, n_times", [(1.0, 1.5, 3), (0.1, 1.05, 12)])
def test_schedule_and_mc_sample_the_same_times_in_any_time_unit(scale, dt, t_final, n_times):
    # one sampling grid, whose slack is relative to dt: a change of time
    # unit changes neither which grid points are sampled nor the last time
    dt, t_final = dt * scale, t_final * scale
    model = MC_MODELS[0]
    sched = ControlSchedule([(t_final, 1.0)])
    times = [evolve_schedule(np.zeros(3), np.eye(3), sched, [0.3, 0.2, 0.1], dt).times,
             mc_sample(model, 1.0, 1.0, [0.3, 0.2, 0.1], dt, t_final, seed=1).times,
             mc_validate(model, 1.0, 1.0, [0.3, 0.2, 0.1], dt, t_final,
                         n_samples=100, seed=1).times]
    assert len(times[0]) == n_times
    for t in times[1:]:
        assert t.tobytes() == times[0].tobytes()
    assert times[0][-1] == t_final


def test_mc_steps_are_exact_hamiltonian_exponentials():
    # each step of one realization is the coherent propagator of the field
    # held on it, exp(-Hmat(h_j) dt_j), which fixes the precession rate to
    # that of hamiltonian_matrix
    model, b3, u, v0, seed = MC_MODELS[2], 1.0, 0.7, [0.3, 0.2, 0.1], 5
    durations = np.diff(_time_grid(0.005, 1.003))
    fields = reference_noise_values(model, durations, seed, [0])[0]
    traj = mc_sample(model, b3, u, v0, 0.005, 1.003, seed)
    for j, (beta, dt_j) in enumerate(zip(fields, durations)):
        h = np.array([beta[0], 0.0, u * b3 + beta[1]])
        step = expm(-hamiltonian_matrix(h) * dt_j) @ traj.states[j]
        assert np.max(np.abs(traj.states[j + 1] - step)) < 1e-12, j


@pytest.mark.parametrize("seed", range(6))
def test_mc_standard_error_under_weak_noise_matches_two_pass(seed):
    # at w = 1e-10 the spread is about 1e-5 of the mean: E[x^2] - mean^2
    # cancels most of its digits, a merge of centred sums does not
    model = CorrelationModel("white", w11=1e-10, w33=1e-10)
    v0, n_samples = [0.5, 0.0, 0.0], 400
    durations = np.diff(_time_grid(0.01, 1.0))
    report = mc_validate(model, 1.0, 1.0, v0, 0.01, 1.0, n_samples=n_samples, seed=seed)
    states = chunked_states(model, 1.0, 1.0, v0, durations, seed, range(n_samples))
    ref = states.std(axis=0, ddof=1) / np.sqrt(n_samples)
    assert np.all(np.abs(report.standard_error - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("seed", range(6))
def test_mc_standard_error_vanishes_where_samples_agree(seed):
    # every sample starts at v0, and dephasing noise along z leaves each
    # sample's z component at v0's, up to the last bit of each step
    report = mc_validate(MC_MODELS[1], 1.0, 1.0, [0.3, 0.2, 0.1], 0.01, 1.0,
                         n_samples=400, seed=seed)
    assert np.max(report.standard_error[0]) <= 1e-15
    assert np.max(report.standard_error[:, 2]) <= 1e-15


@pytest.mark.parametrize("model", [MC_MODELS[0], MC_MODELS[2]], ids=["white", "bivariate"])
@pytest.mark.parametrize("n_steps", [1, 2, 9, 65, 201])
def test_mc_states_do_not_depend_on_the_group(model, n_steps):
    # samples 256-299 alone, inside a full lockstep group, inside a group
    # that starts and ends elsewhere, and each as a group of one sample
    v0, seed, dt = [0.3, 0.2, 0.1], 4, 0.005
    durations = np.diff(_time_grid(dt, n_steps * dt))
    assert len(durations) == n_steps
    alone = chunked_states(model, 1.0, 0.7, v0, durations, seed, range(256, 300))
    full = chunked_states(model, 1.0, 0.7, v0, durations, seed, range(LOCKSTEP_SAMPLES))
    shifted = chunked_states(model, 1.0, 0.7, v0, durations, seed, range(250, 310))
    assert np.array_equal(alone, full[256:300])
    assert np.array_equal(alone, shifted[6:50])
    for k in range(256, 300):
        single = chunked_states(model, 1.0, 0.7, v0, durations, seed, range(k, k + 1))
        assert np.array_equal(single[0], alone[k - 256]), k


@pytest.mark.parametrize("model", [MC_MODELS[0], MC_MODELS[2]], ids=["white", "bivariate"])
def test_mc_chunks_may_be_overwritten(model):
    # mc_validate centres each chunk in place: no later chunk may read it
    v0, seed = [0.3, 0.2, 0.1], 4
    durations = np.diff(_time_grid(0.005, 0.103))
    idx = range(3, 40)
    kept = []
    for chunk in _state_chunks(model, 1.0, 0.7, v0, durations, seed, idx):
        kept.append(chunk.copy())
        chunk.fill(np.nan)
    assert np.array_equal(np.concatenate(kept).transpose(2, 0, 1),
                          reference_ensemble_states(model, 1.0, 0.7, v0, durations, seed, idx))


def test_mc_validate_same_seed_same_bytes():
    args = (MC_MODELS[2], 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 0.203)
    a = mc_validate(*args, n_samples=LOCKSTEP_SAMPLES + 300, seed=6)
    b = mc_validate(*args, n_samples=LOCKSTEP_SAMPLES + 300, seed=6)
    for field in ("times", "mean_states", "markov_states", "standard_error"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert ((a.max_deviation, a.mean_deviation, a.max_se_ratio, a.within_3se)
            == (b.max_deviation, b.mean_deviation, b.max_se_ratio, b.within_3se))


# ---------------------------------------------------------------------------
# the lockstep groups on forked workers
# ---------------------------------------------------------------------------

def report_bytes(report):
    """Every field of a report, arrays as their bytes and numbers as their repr."""
    return {name: value.tobytes() if isinstance(value, np.ndarray) else repr(value)
            for name, value in vars(report).items()}


@pytest.mark.parametrize("model", [MC_MODELS[0], MC_MODELS[2]], ids=["white", "bivariate"])
@pytest.mark.parametrize("n_samples", [100, LOCKSTEP_SAMPLES + 300, 3 * LOCKSTEP_SAMPLES + 1])
def test_mc_validate_bytes_do_not_depend_on_the_worker_count(monkeypatch, model, n_samples):
    # one, two and four lockstep groups over one, two and three processes:
    # with three, the four groups split 2 + 1 + 1; 81 steps span two noise
    # chunks and end in a shortened step
    reports = []
    for cpus in (1, 2, 3):
        patch_cpus(monkeypatch, cpus)
        reports.append(report_bytes(mc_validate(model, 1.0, 0.7, [0.3, 0.2, 0.1], 0.005,
                                                0.403, n_samples=n_samples, seed=6)))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_mc_validate_runs_every_group_here_without_fork(monkeypatch):
    # a platform without os.fork runs the groups in turn, to the same bytes
    args = (MC_MODELS[2], 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 0.05)
    patch_cpus(monkeypatch, 1)
    serial = report_bytes(mc_validate(*args, n_samples=LOCKSTEP_SAMPLES + 300, seed=6))
    patch_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert report_bytes(mc_validate(*args, n_samples=LOCKSTEP_SAMPLES + 300, seed=6)) == serial


def fail_in_groups(monkeypatch, failures):
    """Make ``failures[first]()`` run where the lockstep group starting at
    sample ``first`` would start to draw."""
    real = stochastic._state_chunks

    def chunks(model, b3, u, v0, durations, seed, sample_indices):
        failures.get(sample_indices[0], lambda: None)()
        return real(model, b3, u, v0, durations, seed, sample_indices)

    monkeypatch.setattr(stochastic, "_state_chunks", chunks)


def test_mc_validate_raises_for_a_failed_worker(monkeypatch):
    # two processes: the worker runs the second group, and fails in it
    def failure():
        raise ValueError("a worker's group failed")

    patch_cpus(monkeypatch, 2)
    fail_in_groups(monkeypatch, {LOCKSTEP_SAMPLES: failure})
    with pytest.raises(RuntimeError, match="1 of 1 Monte Carlo workers failed"):
        mc_validate(MC_MODELS[2], 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 0.05,
                    n_samples=LOCKSTEP_SAMPLES + 300, seed=6)
    assert_no_child_left()


class GroupFailure(Exception):
    pass


@pytest.mark.parametrize("error", [GroupFailure, KeyboardInterrupt])
def test_mc_validate_kills_its_workers_when_its_own_group_fails(monkeypatch, error):
    # the worker's group would hang for a minute: the failure in this
    # process's first group must kill it, not wait for it
    def failure():
        raise error("this process's group failed")

    patch_cpus(monkeypatch, 2)
    fail_in_groups(monkeypatch, {0: failure, LOCKSTEP_SAMPLES: lambda: time.sleep(60.0)})
    start = time.perf_counter()
    with pytest.raises(error, match="this process's group failed"):
        mc_validate(MC_MODELS[2], 1.0, 0.7, [0.3, 0.2, 0.1], 0.005, 0.05,
                    n_samples=LOCKSTEP_SAMPLES + 300, seed=6)
    assert time.perf_counter() - start < 30.0
    assert_no_child_left()


WORKERS_AFTER_A_PRINT = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from spinaccess.stochastic import CorrelationModel, LOCKSTEP_SAMPLES, mc_validate
assert not sys.stdout.line_buffering
print("before")
mc_validate(CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2), 1.0, 1.0, [0.5, 0, 0],
            0.005, 0.05, n_samples=LOCKSTEP_SAMPLES + 300, seed=1)
print("after")
"""


def test_mc_validate_workers_leave_the_callers_stdout_alone():
    # a line still in a block-buffered stdout when the worker forks is
    # written once, by this process, and not again by the worker as it exits
    assert block_buffered_stdout(WORKERS_AFTER_A_PRINT) == b"before\nafter\n"


def traced_mc_peak(t_final, n_samples, warm_up_t_final):
    """The benchmark's bivariate model after a warm-up run: the report and
    the traced peak of this process.  Workers forked for some lockstep
    groups are not traced."""
    model = MC_MODELS[2]
    args = dict(b3=1.0, u=1.0, v0=[0.5, 0, 0], dt=0.005, seed=3)
    mc_validate(model, t_final=warm_up_t_final, n_samples=100, **args)
    tracemalloc.start()
    try:
        report = mc_validate(model, t_final=t_final, n_samples=n_samples, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_mc_validate_peak_memory():
    # the benchmark's bivariate model at 2000 samples x 1000 steps: each
    # lockstep group of samples holds its generators, one noise chunk of
    # draws and the arrays of one rotation chunk, about 3 MB; holding the
    # whole ensemble's draws instead would take 32 MB.  On a host with W
    # CPUs, W processes hold W groups in total and only this one is traced,
    # so this measures one worker's share; the whole ensemble in one
    # process is measured below
    _, peak = traced_mc_peak(5.0, 2000, warm_up_t_final=0.1)
    assert peak < 8e6


def test_mc_validate_noise_memory_does_not_grow_with_steps():
    # 100 samples x 1e4 steps: whole streams of draws would hold 16 MB.
    # 100 samples are one group, which this process runs on any host
    report, peak = traced_mc_peak(50.0, 100, warm_up_t_final=0.1)
    assert len(report.times) == 10_001
    assert peak < 4e6


def test_mc_validate_memory_does_not_grow_with_samples():
    # 20,000 samples of 2 steps: advanced all at once, their generators
    # and states would hold 46 MB.  One worker's share, as above: W workers
    # hold W groups in total
    _, peak = traced_mc_peak(0.01, 20_000, warm_up_t_final=0.01)
    assert peak < 8e6


def test_mc_validate_peak_memory_in_one_process(monkeypatch):
    # as test_mc_validate_peak_memory, every group in this process
    patch_cpus(monkeypatch, 1)
    _, peak = traced_mc_peak(5.0, 2000, warm_up_t_final=0.1)
    assert peak < 8e6


def test_mc_validate_noise_memory_does_not_grow_with_steps_in_one_process(monkeypatch):
    patch_cpus(monkeypatch, 1)
    report, peak = traced_mc_peak(50.0, 100, warm_up_t_final=0.1)
    assert len(report.times) == 10_001
    assert peak < 4e6


def test_mc_validate_memory_does_not_grow_with_samples_in_one_process(monkeypatch):
    patch_cpus(monkeypatch, 1)
    _, peak = traced_mc_peak(0.01, 20_000, warm_up_t_final=0.01)
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
