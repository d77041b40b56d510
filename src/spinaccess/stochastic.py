"""Spin in a partially shielded stochastic magnetic field.

The field is B(t) = (beta_1(t), 0, u*b3 + beta_3(t)): a controllable static
component along z plus a two-component stationary noise with covariance
amplitudes (w11, w13, w33) and one of three correlation shapes: zero, white
(delta-correlated) or exponential with correlation time tau.  Averaging the
per-realization unitary dynamics and dropping memory yields a time-independent
generator whose coefficients are correlation integrals with closed forms per
family; the white-noise integrals use the boundary-delta convention
int_0^inf delta(s) f(s) ds = f(0)/2, which makes white noise the tau -> 0
limit of the exponential family with w_exp = w_white / (2 tau) and matches
the piecewise-constant Monte Carlo construction exactly.

The control switches only the mean field b3; the noise, and hence the
dissipative coefficients, are unaffected by it.  Coefficients are evaluated
once at the operating b3 and held fixed under switching.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import InvalidModelError, StepSizeError
from .generator import hamiltonian_matrix
from .liealg import lie_closure

_FAMILIES = ("zero", "white", "exponential")

#: PSD tolerance for the (beta_1, beta_3) covariance block.
_COV_TOL = 1e-12

#: Most realizations times steps one Monte Carlo run may take, five times
#: the 2000 x 1000 README run.  At the bound, a CLI ``montecarlo`` of 100
#: samples of 1e5 steps, white or exponential, peaked at 0.22 GB resident
#: (0.16 GB of it the batch's noise draws) and took 12 s on a 2-core host.
MAX_SAMPLE_STEPS = 10_000_000


@dataclass
class CorrelationModel:
    """Two-time correlation family of the stochastic field components.

    ``w11``, ``w13``, ``w33`` are the covariance amplitudes of
    (beta_1, beta_3); for the white family they carry an extra unit of time.
    ``tau`` is the correlation time, meaningful only for the exponential
    family.
    """

    family: str
    w11: float = 0.0
    w13: float = 0.0
    w33: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidModelError(
                f"family must be one of {_FAMILIES}, got {self.family!r}")
        cov = self.covariance
        if np.linalg.eigvalsh(cov)[0] < -_COV_TOL * max(1.0, np.abs(cov).max()):
            raise InvalidModelError(
                f"amplitudes {(self.w11, self.w13, self.w33)} do not form a PSD covariance")
        if self.family == "exponential" and self.tau <= 0.0:
            raise InvalidModelError(
                f"exponential family needs tau > 0, got {self.tau}")

    @property
    def covariance(self) -> np.ndarray:
        """Stationary covariance of (beta_1, beta_3)."""
        return np.array([[self.w11, self.w13], [self.w13, self.w33]])


@dataclass
class SpinFieldCoefficients:
    """Markovian generator coefficients of the spin-field model.

    ``omega1 = c23`` and ``omega3 = -c12`` hold by construction; all entries
    carry inverse-time units except the frequency ``b3``.
    """

    c11: float
    c12: float
    c13: float
    c23: float
    c33: float
    omega1: float
    omega2: float
    omega3: float
    b3: float


def coefficients(model: CorrelationModel, b3: float) -> SpinFieldCoefficients:
    """Closed-form correlation integrals of the Markovian generator.

    zero family: every coefficient vanishes.  white family (half-delta
    convention): c11 = w11, c13 = w13, c33 = w33, the rest zero.
    exponential family with den = 1 + (2 b3 tau)^2:

        c11 = 2 w11 tau / den          c12 = 2 w11 b3 tau^2 / den
        c13 = w13 tau (1/den + 1)      c23 = 2 w13 b3 tau^2 / den
        c33 = 2 w33 tau                omega2 = w13 tau (1/den - 1)
    """
    if model.family == "zero":
        return SpinFieldCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, b3)
    if model.family == "white":
        return SpinFieldCoefficients(
            c11=model.w11, c12=0.0, c13=model.w13, c23=0.0, c33=model.w33,
            omega1=0.0, omega2=0.0, omega3=0.0, b3=b3)
    tau = model.tau
    den = 1.0 + (2.0 * b3 * tau) ** 2
    c12 = 2.0 * model.w11 * b3 * tau**2 / den
    c23 = 2.0 * model.w13 * b3 * tau**2 / den
    return SpinFieldCoefficients(
        c11=2.0 * model.w11 * tau / den,
        c12=c12,
        c13=model.w13 * tau * (1.0 / den + 1.0),
        c23=c23,
        c33=2.0 * model.w33 * tau,
        omega1=c23,
        omega2=model.w13 * tau * (1.0 / den - 1.0),
        omega3=-c12,
        b3=b3)


def coefficient_matrix(coeffs: SpinFieldCoefficients) -> np.ndarray:
    """Coefficient matrix of the model; the (2,2) entry is structurally zero."""
    return np.array([
        [coeffs.c11, coeffs.c12, coeffs.c13],
        [coeffs.c12, 0.0, coeffs.c23],
        [coeffs.c13, coeffs.c23, coeffs.c33],
    ])


def hamiltonian_vector(coeffs: SpinFieldCoefficients, u: float) -> np.ndarray:
    """Hamiltonian vector h of the averaged dynamics, with H = Hmat(h).

    The field along z is the controlled mean field u * b3 plus the
    noise-induced frequency omega3; omega1 and omega2 act transversally.
    """
    return np.array([coeffs.omega1, -coeffs.omega2, u * coeffs.b3 + coeffs.omega3])


def build_spin_generator(coeffs: SpinFieldCoefficients, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Coherent and dissipative matrices of the averaged dynamics.

    The control value multiplies only the mean-field frequency b3; the
    noise-induced frequencies omega_k and the dissipation matrix are fixed.
    Returns (H, D) with the equation of motion dv/dt = -(H + D) v.
    """
    h = hamiltonian_matrix(hamiltonian_vector(coeffs, u))
    d = 2.0 * np.array([
        [coeffs.c33, -coeffs.c12, -coeffs.c13],
        [-coeffs.c12, coeffs.c11 + coeffs.c33, -coeffs.c23],
        [-coeffs.c13, -coeffs.c23, coeffs.c11],
    ])
    return h, d


def cp_admissible(coeffs: SpinFieldCoefficients, tol: float = 1e-9) -> bool:
    """True iff the coefficients are compatible with complete positivity.

    Requires the rotating-frame couplings c12, c23 to vanish and the
    coefficient matrix to be PSD; among the correlation families this holds
    only for vanishing or white-noise correlations.
    """
    if abs(coeffs.c12) >= tol or abs(coeffs.c23) >= tol:
        return False
    return bool(np.linalg.eigvalsh(coefficient_matrix(coeffs))[0] >= -tol)


# ---------------------------------------------------------------------------
# Monte Carlo sampling of the per-realization unitary dynamics
# ---------------------------------------------------------------------------

def _cov_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root, tolerant of singular covariances."""
    vals, vecs = np.linalg.eigh(cov)
    return vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def _time_grid(dt: float, t_final: float, n_samples: int = 1) -> np.ndarray:
    """Step durations covering [0, t_final] with a shortened final step.

    Raises ValueError, before allocating, when ``n_samples`` realizations
    on the grid would exceed MAX_SAMPLE_STEPS.
    """
    if not (dt > 0 and t_final > 0):
        raise ValueError("dt and t_final must be positive")
    if n_samples * (t_final / dt) > MAX_SAMPLE_STEPS:
        raise ValueError(f"{n_samples} samples of {t_final / dt:.3g} steps exceed "
                         f"{MAX_SAMPLE_STEPS} sample-steps")
    n_full = int(np.floor(t_final / dt + 1e-12))
    durations = [dt] * n_full
    rest = t_final - n_full * dt
    if rest > 1e-12:
        durations.append(rest)
    return np.asarray(durations)


def _field_steps(model: CorrelationModel, durations: np.ndarray,
                 seed: int, sample_indices):
    """Yield the field values (len(samples), 2) held on each step, in order.

    Each sample k draws from an independent stream seeded by (seed, k), so
    ensemble runs are reproducible and any single member can be regenerated
    in isolation.  The streams are drawn whole up front; the steps then run
    across all samples at once.
    """
    n_steps = len(durations)
    root = _cov_sqrt(model.covariance)
    white = model.family == "white"
    # white: one independent draw per step; exponential: the stationary
    # initial value plus one innovation per step
    n_draws = n_steps if white else n_steps + 1
    z = np.empty((len(sample_indices), n_draws, 2))
    for row, k in enumerate(sample_indices):
        rng = np.random.default_rng([seed, k])
        z[row] = rng.standard_normal((n_draws, 2)) @ root.T
    if white:
        scale = 1.0 / np.sqrt(durations)
        for j in range(n_steps):
            yield z[:, j] * scale[j]
        return
    # exponential: stationary bivariate Ornstein-Uhlenbeck chain with exact
    # one-step conditional updates (Gillespie 1996), field held at the
    # step-start value
    phi = np.exp(-durations / model.tau)
    innov = np.sqrt(1.0 - phi**2)
    beta = z[:, 0]
    for j in range(n_steps):
        yield beta
        beta = phi[j] * beta + innov[j] * z[:, j + 1]


def _rotate_states(states: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """Exact precession step v -> R(2h, dt) v, batched (Rodrigues formula)."""
    omega = 2.0 * h
    speed = np.linalg.norm(omega, axis=1)
    theta = speed * dt
    small = speed < 1e-300
    axis = np.where(small[:, None], 0.0, omega / np.where(small, 1.0, speed)[:, None])
    cos_t = np.cos(theta)[:, None]
    sin_t = np.sin(theta)[:, None]
    # the cross product by components: np.cross spends most of its time on
    # axis handling for arrays this small
    a0, a1, a2 = axis.T
    s0, s1, s2 = states.T
    cross = np.stack([a1 * s2 - a2 * s1, a2 * s0 - a0 * s2, a0 * s1 - a1 * s0], axis=1)
    dot = np.einsum("ij,ij->i", axis, states)[:, None]
    return states * cos_t + cross * sin_t + axis * dot * (1.0 - cos_t)


def _state_steps(model, b3, u, v0, durations, seed, sample_indices):
    """Yield the states (len(samples), 3) at each grid time, v0 first."""
    n = len(sample_indices)
    states = np.tile(np.asarray(v0, dtype=float), (n, 1))
    yield states
    h = np.zeros((n, 3))
    for dt_j, beta in zip(durations, _field_steps(model, durations, seed, sample_indices)):
        h[:, 0] = beta[:, 0]
        h[:, 2] = u * b3 + beta[:, 1]
        states = _rotate_states(states, h, dt_j)
        yield states


def _check_mc_preconditions(model: CorrelationModel, dt: float):
    if model.family == "zero":
        raise InvalidModelError("Monte Carlo sampling needs a white or exponential family")
    if model.family == "exponential" and dt > model.tau / 10.0:
        raise StepSizeError(
            f"dt = {dt} too coarse for correlation time {model.tau}; need dt <= tau/10")


def mc_sample(model: CorrelationModel, b3: float, u: float, v0: np.ndarray,
              dt: float, t_final: float, seed: int) -> Trajectory:
    """One noise realization of the per-realization (unitary) dynamics.

    The state precesses about the instantaneous field, so the norm is
    conserved along every realization; dissipation appears only in the
    ensemble mean.

    Raises
    ------
    InvalidModelError
        For the zero family (nothing to sample).
    StepSizeError
        For an exponential family with dt > tau / 10.
    """
    _check_mc_preconditions(model, dt)
    durations = _time_grid(dt, t_final)
    states = np.concatenate(list(_state_steps(model, b3, u, v0, durations, seed, [0])))
    times = np.concatenate([[0.0], np.cumsum(durations)])
    return Trajectory(
        times=times,
        states=states,
        purities=np.einsum("ij,ij->i", states, states),
        controls=np.full(len(times), float(u)),
    )


@dataclass
class MCValidationReport:
    """Ensemble mean versus Markovian propagation on a common grid."""

    n_samples: int
    times: np.ndarray
    mean_states: np.ndarray      # (m, 3) ensemble average
    markov_states: np.ndarray    # (m, 3) generator propagation
    standard_error: np.ndarray   # (m, 3)
    max_deviation: float
    mean_deviation: float
    max_se_ratio: float
    within_3se: bool


def mc_validate(model: CorrelationModel, b3: float, u: float, v0: np.ndarray,
                dt: float, t_final: float, n_samples: int,
                seed: int) -> MCValidationReport:
    """Compare the noise-ensemble mean against the Markovian generator.

    Averages ``n_samples`` realizations (sub-seeded deterministically from
    ``seed``), propagates the same initial state with the closed-form
    generator, and reports componentwise deviations with their standard
    errors.

    ``within_3se`` is a pointwise test: every (time, component) deviation,
    about 3000 of them on a 1000-step grid, must lie within 3 standard
    errors, with no allowance for their number.  It therefore reads False
    on correct runs too, at some seeds for white noise and at every seed
    tried for the exponential family, and a False value alone does not
    show that the memoryless approximation fails.  ``max_se_ratio`` gives
    the worst deviation in standard errors, to be judged against the
    number of comparisons.
    """
    from scipy.linalg import expm

    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples}")
    _check_mc_preconditions(model, dt)
    durations = _time_grid(dt, t_final, n_samples)
    times = np.concatenate([[0.0], np.cumsum(durations)])

    batch = 256
    total = np.zeros((len(times), 3))
    total_sq = np.zeros((len(times), 3))
    for start in range(0, n_samples, batch):
        idx = range(start, min(start + batch, n_samples))
        for j, states in enumerate(_state_steps(model, b3, u, v0, durations, seed, idx)):
            total[j] += states.sum(axis=0)
            total_sq[j] += (states**2).sum(axis=0)
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean**2, 0.0) * n_samples / max(n_samples - 1, 1)
    se = np.sqrt(var / n_samples)

    h, d = build_spin_generator(coefficients(model, b3), u)
    gen = -(h + d)
    v0 = np.asarray(v0, dtype=float)
    markov = np.stack([expm(gen * t) @ v0 for t in times])

    dev = np.abs(mean - markov)
    ratio = dev / np.maximum(se, 1e-15)
    return MCValidationReport(
        n_samples=n_samples,
        times=times,
        mean_states=mean,
        markov_states=markov,
        standard_error=se,
        max_deviation=float(dev.max()),
        mean_deviation=float(dev.mean()),
        max_se_ratio=float(ratio.max()),
        within_3se=bool(np.all(dev <= 3.0 * se + 1e-12)),
    )


# ---------------------------------------------------------------------------
# accessibility of a correlation family as a whole
# ---------------------------------------------------------------------------

def family_draws(model: CorrelationModel, n_draws: int = 2,
                 seed: int = 0) -> list:
    """Models sharing the zero pattern of ``model`` with generic amplitudes.

    The first draw is the model itself; subsequent draws rescale each
    nonvanishing amplitude independently (and the correlation time, when
    present) while preserving covariance validity.  Used to probe claims
    about a correlation family whose amplitudes are unknown phenomenological
    parameters rather than a single calibrated point.
    """
    rng = np.random.default_rng(seed)
    draws = [model]
    for _ in range(max(0, n_draws - 1)):
        s1, s3 = rng.uniform(1.2, 2.5, size=2)
        r = rng.uniform(0.5, 0.95)
        w11 = model.w11 * s1
        w33 = model.w33 * s3
        w13 = model.w13 * np.sqrt(s1 * s3) * r
        tau = model.tau * rng.uniform(0.7, 1.4) if model.family == "exponential" else model.tau
        draws.append(CorrelationModel(model.family, w11=w11, w13=w13, w33=w33, tau=tau))
    return draws


def family_lie_generators(model: CorrelationModel, b3: float, u: float = 1.0,
                          n_draws: int = 2, seed: int = 0) -> list:
    """Switched generator pairs pooled over generic draws of the family."""
    gens = []
    for draw in family_draws(model, n_draws=n_draws, seed=seed):
        h, d = build_spin_generator(coefficients(draw, b3), u)
        gens.extend([d, h + d])
    return gens


def family_lie_dimension(model: CorrelationModel, b3: float, u: float = 1.0,
                         n_draws: int = 2, seed: int = 0) -> int:
    """Dimension of the Lie algebra generated by the whole correlation family.

    With the amplitudes treated as free parameters, this is the closure of
    the pooled switched generators; for a single calibrated model use
    ``lie_closure`` on its own generator pair instead (the family dimension
    can exceed it).
    """
    return lie_closure(family_lie_generators(model, b3, u=u, n_draws=n_draws,
                                             seed=seed)).dim


def positivity_admissible(coeffs: SpinFieldCoefficients, tol: float = 1e-9) -> bool:
    """True iff the dissipation matrix of the coefficients is PSD."""
    _, d = build_spin_generator(coeffs, u=0.0)
    return bool(np.linalg.eigvalsh(d)[0] >= -tol)


__all__ = [
    "CorrelationModel",
    "SpinFieldCoefficients",
    "MCValidationReport",
    "coefficients",
    "coefficient_matrix",
    "build_spin_generator",
    "hamiltonian_vector",
    "cp_admissible",
    "positivity_admissible",
    "mc_sample",
    "mc_validate",
    "family_draws",
    "family_lie_generators",
    "family_lie_dimension",
]
