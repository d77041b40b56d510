"""Reference computations made apart from the spinaccess package.

Every function here works from the formulas of the model (README of the
repository and the module docstrings of the package), never from package
code, so the benchmark can check the program's outputs against them.
Only numpy and scipy are used; scipy is imported where it is needed, so that
importing this module adds nothing to the set-up time the benchmark measures.
"""

import numpy as np


def sym(c6):
    """Symmetric 3x3 matrix of a (c11, c22, c33, c12, c13, c23) 6-vector."""
    c11, c22, c33, c12, c13, c23 = np.asarray(c6, dtype=float)
    return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]])


def dissipation(c):
    """D = 2 (I Tr C - C)."""
    c = np.asarray(c, dtype=float)
    return 2.0 * (np.eye(3) * np.trace(c) - c)


def hamiltonian(h):
    """Hmat(h) = 2 [[0, h3, -h2], [-h3, 0, h1], [h2, -h1, 0]]."""
    h1, h2, h3 = np.asarray(h, dtype=float)
    return 2.0 * np.array([[0.0, h3, -h2], [-h3, 0.0, h1], [h2, -h1, 0.0]])


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def propagate_segments(c, h, v0, schedule):
    """Final coherence vector after a piecewise-constant schedule.

    One exponential per segment: v <- expm(-(u Hmat(h) + D) T) v for each
    (T, u) in order, with D = 2 (I Tr C - C).
    """
    from scipy import linalg

    d = dissipation(c)
    hm = hamiltonian(h)
    v = np.asarray(v0, dtype=float)
    for duration, u in schedule:
        v = linalg.expm(-(u * hm + d) * duration) @ v
    return v


def markov_states(gen, v0, dt, n_steps):
    """States exp(gen k dt) v0 for k = 0..n_steps, by repeated one-step products."""
    from scipy import linalg

    step = linalg.expm(gen * dt)
    out = np.empty((n_steps + 1, 3))
    out[0] = v0
    for k in range(n_steps):
        out[k + 1] = step @ out[k]
    return out


# ---------------------------------------------------------------------------
# Lie algebra dimension
# ---------------------------------------------------------------------------

def _span_basis(mats, rel_tol):
    """Orthonormal rows spanning the 9-vectors of ``mats`` (SVD rank cut)."""
    flat = np.array([m.reshape(9) / np.linalg.norm(m) for m in mats
                     if np.linalg.norm(m) > 0.0])
    if len(flat) == 0:
        return np.zeros((0, 9))
    _, sv, vt = np.linalg.svd(flat, full_matrices=False)
    return vt[: int(np.sum(sv > rel_tol * sv[0]))]


def lie_rank(generators, max_depth=12, rel_tol=1e-8):
    """Dimension of the matrix Lie algebra generated by ``generators``.

    The algebra is spanned by the right-nested brackets
    [g1, [g2, [... , gk]]] of the generators.  Level k + 1 brackets each
    generator with a basis of level k; the answer is the matrix rank of all
    levels together, taken once a level adds no new direction.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    level = _span_basis(gens, rel_tol)
    total = level
    for _ in range(max_depth):
        nxt = [g @ x.reshape(3, 3) - x.reshape(3, 3) @ g
               for g in gens for x in level]
        nxt = [m for m in nxt if np.linalg.norm(m) > 1e-12]
        if not nxt:
            break
        level = _span_basis(nxt, rel_tol)
        grown = _span_basis(list(total.reshape(-1, 3, 3)) + list(level.reshape(-1, 3, 3)),
                            rel_tol)
        if len(grown) == len(total):
            break
        total = grown
    return len(total)


# ---------------------------------------------------------------------------
# spin in a stochastic field: correlation integrals by quadrature
# ---------------------------------------------------------------------------

def spin_field_coefficients(family, w11, w13, w33, tau, b3):
    """Markovian coefficients from the correlation integrals, by quadrature.

    With correlation shape f(s) (exp(-s/tau) for the exponential family)
    and I_c = int f cos(2 b3 s), I_s = int f sin(2 b3 s), I_0 = int f over
    [0, inf):
        c11 = 2 w11 I_c,  c12 = w11 I_s,  c13 = w13 (I_c + I_0),
        c23 = w13 I_s,    c33 = 2 w33 I_0, omega2 = w13 (I_c - I_0),
        omega1 = c23,     omega3 = -c12.
    The white family uses int_0^inf delta(s) g(s) ds = g(0)/2, so
    I_c = I_0 = 1/2 and I_s = 0; the zero family has no coefficients.
    """
    if family == "zero":
        i_c = i_s = i_0 = 0.0
    elif family == "white":
        i_c, i_s, i_0 = 0.5, 0.0, 0.5
    else:
        from scipy import integrate

        def integral(weight):
            return integrate.quad(lambda s: np.exp(-s / tau) * weight(s), 0.0, 80.0 * tau,
                                  limit=400, epsabs=1e-14, epsrel=1e-13)[0]

        i_c = integral(lambda s: np.cos(2.0 * b3 * s))
        i_s = integral(lambda s: np.sin(2.0 * b3 * s))
        i_0 = integral(lambda s: 1.0)
    c12 = w11 * i_s
    c23 = w13 * i_s
    return {
        "c11": 2.0 * w11 * i_c, "c12": c12, "c13": w13 * (i_c + i_0),
        "c23": c23, "c33": 2.0 * w33 * i_0,
        "omega1": c23, "omega2": w13 * (i_c - i_0), "omega3": -c12, "b3": b3,
    }


def spin_field_matrices(coeffs, u):
    """(Hmat, D) of the averaged spin dynamics dv/dt = -(Hmat + D) v.

    The noise-induced frequencies add to the mean field: the Hamiltonian
    vector is (omega1, -omega2, u b3 + omega3); D follows from the
    coefficient matrix, whose (2,2) entry is zero because the field has no
    y component.
    """
    c = sym([coeffs["c11"], 0.0, coeffs["c33"],
             coeffs["c12"], coeffs["c13"], coeffs["c23"]])
    h = (coeffs["omega1"], -coeffs["omega2"], u * coeffs["b3"] + coeffs["omega3"])
    return hamiltonian(h), dissipation(c)


# ---------------------------------------------------------------------------
# exact ensemble mean of the discretised dephasing chain
# ---------------------------------------------------------------------------

def dephasing_sum_variance(family, w33, dt, tau, n_steps):
    """Var of sum_{j<m} beta_3(j) for m = 0..n_steps, field held per step.

    White noise: independent steps of variance w33 / dt.  Exponential
    noise: the stationary OU chain with variance w33 and lag-d correlation
    phi^d, phi = exp(-dt / tau), so
    Var = w33 (m + 2 sum_{d<m} (m - d) phi^d).
    """
    m = np.arange(n_steps + 1, dtype=float)
    if family == "white":
        return w33 * m / dt
    phi = np.exp(-dt / tau)
    # Var(m + 1) = Var(m) + w33 (1 + 2 sum_{d=1}^{m} phi^d)
    lag_sums = np.concatenate([[0.0], np.cumsum(phi ** np.arange(1, n_steps + 1))])
    increments = w33 * (1.0 + 2.0 * lag_sums[:-1])
    return np.concatenate([[0.0], np.cumsum(increments)])


def dephasing_mean(family, w33, tau, b3, u, v0, dt, n_steps):
    """Exact mean coherence vector of the discretised dephasing chain.

    With only beta_3, every realisation precesses about z by
    2 (u b3 + beta_3) dt per step, so v_x + i v_y picks up
    exp(i 2 u b3 t) exp(i 2 dt sum beta_3); the Gaussian average gives
    (v_x + i v_y)(t) = (v_x0 + i v_y0) e^{i 2 u b3 t} exp(-2 dt^2 Var sum beta_3).
    v_z is constant.  Returns (n_steps + 1, 3).
    """
    t = dt * np.arange(n_steps + 1)
    var = dephasing_sum_variance(family, w33, dt, tau, n_steps)
    z = (v0[0] + 1j * v0[1]) * np.exp(2j * u * b3 * t) * np.exp(-2.0 * dt**2 * var)
    return np.column_stack([z.real, z.imag, np.full(len(t), float(v0[2]))])
