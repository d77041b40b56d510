"""Tests of the benchmark's own reference computations and inputs.

Run from the root of a checkout:

    python3 -m pytest -q bench/selfcheck.py

Each reference is tested against a second derivation that shares no code
with it: a brute-force sum, an analytic solution or a plain simulation.
"""

import os
import sys

import numpy as np
import pytest

import library
import reference as ref


def test_dephasing_variance_matches_covariance_sum():
    dt, tau, w33, n = 0.01, 0.05, 0.7, 12
    phi = np.exp(-dt / tau)
    var = ref.dephasing_sum_variance("exponential", w33, dt, tau, n)
    white = ref.dephasing_sum_variance("white", w33, dt, tau, n)
    for m in range(n + 1):
        lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        assert var[m] == pytest.approx(w33 * np.sum(phi ** lags), rel=1e-12, abs=1e-15)
        assert white[m] == pytest.approx(m * w33 / dt, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("family", ["white", "exponential"])
def test_dephasing_mean_matches_plain_simulation(family):
    # the discretised chain, simulated directly: field held on each step,
    # precession about z by 2 (u b3 + beta) dt
    rng = np.random.default_rng(5)
    w33, tau, b3, u, dt, n_steps, samples = 0.8, 0.05, 1.3, 1.0, 0.01, 40, 40000
    v0 = np.array([0.3, -0.2, 0.1])
    if family == "white":
        beta = rng.standard_normal((samples, n_steps)) * np.sqrt(w33 / dt)
    else:
        phi = np.exp(-dt / tau)
        beta = np.empty((samples, n_steps))
        beta[:, 0] = rng.standard_normal(samples) * np.sqrt(w33)
        for j in range(1, n_steps):
            beta[:, j] = phi * beta[:, j - 1] + np.sqrt(w33 * (1 - phi**2)) * \
                rng.standard_normal(samples)
    angle = np.concatenate([np.zeros((samples, 1)),
                            np.cumsum(2.0 * (u * b3 + beta) * dt, axis=1)], axis=1)
    z = (v0[0] + 1j * v0[1]) * np.exp(1j * angle)
    mean = np.column_stack([z.real.mean(0), z.imag.mean(0)])
    se = np.column_stack([z.real.std(0), z.imag.std(0)]) / np.sqrt(samples)
    exact = ref.dephasing_mean(family, w33, tau, b3, u, v0, dt, n_steps)
    assert np.all(np.abs(mean - exact[:, :2]) <= 5.0 * se + 1e-12)
    assert np.all(exact[:, 2] == v0[2])


def test_lie_rank_of_known_algebras():
    x, y, z = np.eye(3)
    assert ref.lie_rank([ref.hamiltonian(x), ref.hamiltonian(y)]) == 3      # so(3)
    assert ref.lie_rank([ref.hamiltonian(z)]) == 1
    assert ref.lie_rank([np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 5.0])]) == 2
    assert ref.lie_rank([np.eye(3), ref.hamiltonian(z)]) == 2
    rng = np.random.default_rng(0)
    assert ref.lie_rank([rng.standard_normal((3, 3)), rng.standard_normal((3, 3))]) == 9
    # traceless generic pair: sl(3)
    a, b = rng.standard_normal((2, 3, 3))
    a -= np.trace(a) / 3 * np.eye(3)
    b -= np.trace(b) / 3 * np.eye(3)
    assert ref.lie_rank([a, b]) == 8


def test_lie_rank_of_the_readme_switched_pairs():
    basis = [ref.sym(r) for r in ([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1])]
    h = ref.hamiltonian([0, 0, 1.0])
    dims = []
    for theta in ([1, 1, 0.7], [1, 1, 0]):
        d = ref.dissipation(sum(t * b for t, b in zip(theta, basis)))
        dims.append(ref.lie_rank([d, h + d]))
    assert dims == [9, 2]


def test_propagation_against_analytic_solutions():
    # pure precession about z at angular rate 2 h3
    v = ref.propagate_segments(np.zeros((3, 3)), [0, 0, 0.4], [0.5, 0, 0], [(1.3, 1.0)])
    angle = 2 * 0.4 * 1.3
    assert np.allclose(v, [0.5 * np.cos(angle), 0.5 * np.sin(angle), 0], atol=1e-14)
    # pure dissipation, diagonal C: D = 2 diag(c22 + c33, c11 + c33, c11 + c22)
    c = np.diag([0.1, 0.2, 0.3])
    v = ref.propagate_segments(c, [1, 2, 3], [0.1, 0.2, 0.3], [(2.0, 0.0)])
    assert np.allclose(v, np.array([0.1, 0.2, 0.3]) * np.exp(-2 * 2.0 * np.array([0.5, 0.4, 0.3])),
                       atol=1e-14)
    # semigroup: split segments compose
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    c, h, v0 = a @ a.T, rng.standard_normal(3), [0.2, 0.1, -0.3]
    one = ref.propagate_segments(c, h, v0, [(0.9, 0.7)])
    two = ref.propagate_segments(c, h, v0, [(0.4, 0.7), (0.5, 0.7)])
    assert np.allclose(one, two, atol=1e-13)


def test_markov_states_match_direct_exponentials():
    from scipy.linalg import expm

    rng = np.random.default_rng(2)
    gen = -rng.uniform(0, 1, (3, 3))
    states = ref.markov_states(gen, np.array([0.5, 0, 0]), 0.01, 300)
    direct = np.stack([expm(gen * 0.01 * k) @ [0.5, 0, 0] for k in range(301)])
    assert np.abs(states - direct).max() < 1e-12


def test_spin_field_quadrature_against_elementary_integrals():
    # int_0^inf e^{-s/tau} cos(w s) ds = tau / (1 + w^2 tau^2), sin: w tau^2 / (...)
    w11, w13, w33, tau, b3 = 1.1, -0.4, 0.6, 0.35, 1.7
    q = ref.spin_field_coefficients("exponential", w11, w13, w33, tau, b3)
    den = 1 + (2 * b3 * tau) ** 2
    i_c, i_s, i_0 = tau / den, 2 * b3 * tau**2 / den, tau
    expected = {"c11": 2 * w11 * i_c, "c12": w11 * i_s, "c13": w13 * (i_c + i_0),
                "c23": w13 * i_s, "c33": 2 * w33 * i_0, "omega1": w13 * i_s,
                "omega2": w13 * (i_c - i_0), "omega3": -w11 * i_s}
    for key, value in expected.items():
        assert q[key] == pytest.approx(value, rel=1e-10, abs=1e-13), key
    white = ref.spin_field_coefficients("white", w11, w13, w33, tau, b3)
    assert (white["c11"], white["c13"], white["c33"], white["c12"]) == (w11, w13, w33, 0.0)


def test_spin_field_matrices_follow_the_readme_conventions():
    q = {"c11": 0.3, "c12": 0.1, "c13": 0.05, "c23": 0.02, "c33": 0.4,
         "omega1": 0.02, "omega2": -0.01, "omega3": -0.1, "b3": 1.5}
    hm, d = ref.spin_field_matrices(q, 1.0)
    assert np.allclose(hm, -hm.T) and np.allclose(d, d.T)
    # precession rate about z is 2 (u b3 + omega3)
    assert hm[0, 1] == pytest.approx(2 * (1.5 - 0.1))
    # D11 = 2 (c22 + c33) with c22 = 0, D33 = 2 (c11 + c22)
    assert d[0, 0] == pytest.approx(0.8) and d[2, 2] == pytest.approx(0.6)


def test_transformed_copies_are_scaled_similarities():
    q = library.rotation()
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-15)
    for _, rows, *_ in library.PATTERNS:
        for r, t in zip(rows, library.transformed_rows(rows)):
            assert np.allclose(np.linalg.eigvalsh(ref.sym(t)),
                               library.SCALE * np.linalg.eigvalsh(ref.sym(r)), atol=1e-9)


def test_patterns_match_the_repository_library():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "tests", "pattern_library.py")):
        pytest.skip("no tests/pattern_library.py in this directory")
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    try:
        import pattern_library
    finally:
        del sys.path[:2]
    table = {p[0]: p for p in pattern_library.PATTERNS}
    for name, rows, *values in library.PATTERNS:
        theirs = table[name]
        assert list(values) == list(theirs[2:])
        theirs_rows = pattern_library.build(theirs[1]).basis.reshape(len(rows), 9)
        assert np.array_equal(np.asarray(rows, dtype=float), theirs_rows[:, [0, 4, 8, 1, 2, 5]])
