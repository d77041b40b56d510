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

from .cones import FEAS_TOL, is_completely_positive, is_positive
from .dynamics import Trajectory, propagate
from .errors import InvalidModelError, StepSizeError
from .generator import (HMAT_FACTOR, dissipation_from_kossakowski, hamiltonian_matrix,
                        vec6_to_sym)
from .liealg import lie_closure, switching_generators

#: Names of the correlation families.
FAMILIES = ("zero", "white", "exponential")

#: PSD tolerance for the (beta_1, beta_3) covariance block.
_COV_TOL = 1e-12

#: Most realizations times steps one Monte Carlo run may take, five times
#: the 2000 x 1000 README run.  Each realization is charged at least
#: NOISE_CHUNK steps, the noise it draws however few steps it takes.  At the
#: bound, on a 2-core host, a CLI ``montecarlo`` of 100 samples of 1e5
#: steps, white or exponential, took 5 s, most of it in the per-step
#: rotation, and peaked at 60 MB resident (37 MB for 100 steps; the rest is
#: the report's per-time arrays); 156,250 samples of one step took 2.9-3.3 s
#: and peaked at 39 MB.
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
        if self.family not in FAMILIES:
            raise InvalidModelError(
                f"family must be one of {FAMILIES}, got {self.family!r}")
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
    return vec6_to_sym([coeffs.c11, 0.0, coeffs.c33, coeffs.c12, coeffs.c13, coeffs.c23])


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
    return (hamiltonian_matrix(hamiltonian_vector(coeffs, u)),
            dissipation_from_kossakowski(coefficient_matrix(coeffs)))


def cp_admissible(coeffs: SpinFieldCoefficients) -> bool:
    """True iff the coefficients are compatible with complete positivity.

    Requires the rotating-frame couplings c12, c23 to vanish and the
    coefficient matrix to be PSD; among the correlation families this holds
    only for vanishing or white-noise correlations.
    """
    if abs(coeffs.c12) >= FEAS_TOL or abs(coeffs.c23) >= FEAS_TOL:
        return False
    return is_completely_positive(coefficient_matrix(coeffs))


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
    on the grid, each charged at least NOISE_CHUNK steps, would exceed
    MAX_SAMPLE_STEPS.
    """
    if not (dt > 0 and t_final > 0):
        raise ValueError("dt and t_final must be positive")
    if n_samples * max(t_final / dt, NOISE_CHUNK) > MAX_SAMPLE_STEPS:
        raise ValueError(f"{n_samples} samples of {t_final / dt:.3g} steps, each "
                         f"charged at least {NOISE_CHUNK}, exceed {MAX_SAMPLE_STEPS} "
                         f"sample-steps")
    n_full = int(np.floor(t_final / dt + 1e-12))
    durations = [dt] * n_full
    rest = t_final - n_full * dt
    if rest > 1e-12:
        durations.append(rest)
    return np.asarray(durations)


#: Steps of noise drawn per call of a sample's generator.  A call costs
#: about 2.4 us on a 2-core host; the draws held take 16 bytes per sample
#: and step, beside about 1 kB per sample for its generator.
NOISE_CHUNK = 64

#: Steps whose rotation axes and angles are computed in one pass; about
#: 170 bytes per sample and step are held while they are applied.
ROTATION_CHUNK = 8

#: Samples summed as one block before the blocks are added in order; the
#: order of the sums fixes the last bits of the mean and standard error.
SUM_BLOCK = 256

#: Samples advanced together, a multiple of SUM_BLOCK; larger ensembles run
#: in consecutive groups.  A group holds about 3 MB, and the README's 2000
#: samples ran no slower in two groups than in one.
LOCKSTEP_SAMPLES = 4 * SUM_BLOCK


def _chunks(n: int, size: int) -> list:
    """Consecutive (start, stop) ranges over n of at most ``size`` (>= 3) items.

    A lone last item is moved into a chunk with the one before it: the
    draws pass through a matrix product, which rounds a lone row
    differently from a row of a longer block.
    """
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return list(zip(bounds[:-1], bounds[1:]))


def _correlate(z: np.ndarray, root: np.ndarray) -> np.ndarray:
    """z @ root.T for a (samples, steps, 2) block of standard normal draws,
    returned step-major, (steps, samples, 2).

    Every row is rounded as in one product per sample over its whole
    stream: products of two or more rows round each row alike, so the rows
    of all samples go through one product, while a lone row (a one-step
    stream) goes through numpy's vector path, sample by sample.
    """
    if z.shape[1] == 1:
        return (z @ root.T).transpose(1, 0, 2)
    # the step-major copy moves each (sample, step) pair as one complex
    pairs = np.ascontiguousarray(z.view(np.complex128).T).view(float)
    return (pairs.reshape(-1, 2) @ root.T).reshape(z.shape[1], -1, 2)


def _field_chunks(model: CorrelationModel, durations: np.ndarray,
                  seed: int, sample_indices):
    """Yield the field values held on consecutive chunks of steps, (steps, samples, 2).

    Each sample k draws from an independent stream seeded by (seed, k), so
    ensemble runs are reproducible and any single member can be regenerated
    in isolation.  Every stream is drawn NOISE_CHUNK steps at a time, so the
    noise held does not grow with the number of steps, and the values equal
    those of one whole draw per stream bit for bit.
    """
    n_steps = len(durations)
    if not n_steps:
        return
    root = _cov_sqrt(model.covariance)
    rngs = [np.random.default_rng([seed, k]) for k in sample_indices]
    white = model.family == "white"
    if white:
        # one independent draw per step
        n_draws = n_steps
        scale = 1.0 / np.sqrt(durations)
    else:
        # stationary bivariate Ornstein-Uhlenbeck chain with exact one-step
        # conditional updates (Gillespie 1996), the field held at the
        # step-start value: draw 0 is the stationary initial value, draw j
        # the innovation into step j, and one last draw is never used
        n_draws = n_steps + 1
        phi = np.exp(-durations / model.tau)
        innov = np.sqrt(1.0 - phi**2)
    draws = np.empty((len(rngs), NOISE_CHUNK, 2))
    for start, stop in _chunks(n_draws, NOISE_CHUNK):
        z = draws[:, :stop - start]
        for row, rng in enumerate(rngs):
            rng.standard_normal(out=z[row])
        for lo, hi in _chunks(stop - start, ROTATION_CHUNK):
            first = start + lo
            fields = _correlate(z[:, lo:hi], root)[:n_steps - first]
            if white:
                fields *= scale[first:first + len(fields), None, None]
            else:
                for j, field in enumerate(fields, start=first):
                    if j > 0:
                        field *= innov[j - 1]
                        field += phi[j - 1] * beta
                    beta = field
                beta = beta.copy()
            yield fields


def _precession(fields: np.ndarray, durations: np.ndarray, b3: float, u: float):
    """Axis and angle of the exact precession of each step of a chunk,
    v -> R(HMAT_FACTOR * h, dt) v, about the field h = (beta_1, 0, u b3 + beta_3).

    Returns the unit axis as (steps, 3, samples) and the cos, sin and
    1 - cos of the angle as (steps, 1, samples).
    """
    axis = np.zeros((len(fields), 3, fields.shape[1]))
    axis[:, 0] = fields[..., 0]
    axis[:, 2] = u * b3 + fields[..., 1]
    axis *= HMAT_FACTOR
    # |omega| as np.linalg.norm sums it; the y component is zero
    speed = np.sqrt(axis[:, 0] ** 2 + axis[:, 2] ** 2)[:, None]
    small = speed < 1e-300
    axis /= np.where(small, 1.0, speed)
    np.copyto(axis, 0.0, where=small)
    theta = np.multiply(speed, durations[:, None, None], out=speed)
    cos_t = np.cos(theta)
    return axis, cos_t, np.sin(theta, out=theta), 1.0 - cos_t


def _advance(states: np.ndarray, fields: np.ndarray, durations: np.ndarray,
             b3: float, u: float) -> np.ndarray:
    """States after each step of a chunk, (samples, steps, 3), from states (3, samples).

    All samples advance together, one step at a time, by the Rodrigues
    formula v cos + (a x v) sin + a (a . v)(1 - cos).
    """
    axis, cos_t, sin_t, omc = _precession(fields, durations, b3, u)
    out = np.empty(axis.shape)
    for a, c, s, o, new in zip(axis, cos_t, sin_t, omc, out):
        cross = a[[1, 2, 0]] * states[[2, 0, 1]]
        cross -= a[[2, 0, 1]] * states[[1, 2, 0]]
        cross *= s
        # a . v summed as np.einsum("ij,ij->i") sums it, +0 first
        prod = a * states
        dot = prod[0] + prod[2]
        dot += prod[1]
        dot += 0.0
        np.multiply(states, c, out=new)
        new += cross
        new += a * dot * o
        states = new
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def _state_chunks(model, b3, u, v0, durations, seed, sample_indices):
    """Yield the states at consecutive chunks of grid times, (samples, times, 3).

    The first chunk is v0 alone.
    """
    n = len(sample_indices)
    v0 = np.asarray(v0, dtype=float)
    chunk = np.tile(v0, (n, 1, 1))
    step = 0
    for fields in _field_chunks(model, durations, seed, sample_indices):
        yield chunk
        states = np.ascontiguousarray(chunk[:, -1].T)
        chunk = _advance(states, fields, durations[step:step + len(fields)], b3, u)
        step += len(fields)
    yield chunk


def _add_block_sums(total: np.ndarray, x: np.ndarray) -> None:
    """Add the samples of x, its first axis, into total: each block of
    SUM_BLOCK samples is summed in sample order, then the block sums are
    added to total one after another."""
    full = len(x) - len(x) % SUM_BLOCK
    terms = [total[None], x[:full].reshape(-1, SUM_BLOCK, *x.shape[1:]).sum(axis=1)]
    if full < len(x):
        terms.append(x[full:].sum(axis=0, keepdims=True))
    total[...] = np.concatenate(terms).sum(axis=0)


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
    states = np.concatenate([chunk[0] for chunk in
                             _state_chunks(model, b3, u, v0, durations, seed, [0])])
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

    Up to LOCKSTEP_SAMPLES realizations advance together, one time step at
    a time, their noise drawn NOISE_CHUNK steps at a time, so the memory
    held grows with neither the number of samples nor that of steps, beside
    the report's per-time arrays.  Each time's states are summed over blocks
    of SUM_BLOCK samples, and the block sums added in order.

    ``within_3se`` is a pointwise test: every (time, component) deviation,
    about 3000 of them on a 1000-step grid, must lie within 3 standard
    errors, with no allowance for their number.  It therefore reads False
    on correct runs too, at some seeds for white noise and at every seed
    tried for the exponential family, and a False value alone does not
    show that the memoryless approximation fails.  ``max_se_ratio`` gives
    the worst deviation in standard errors, to be judged against the
    number of comparisons.
    """
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples}")
    _check_mc_preconditions(model, dt)
    durations = _time_grid(dt, t_final, n_samples)
    times = np.concatenate([[0.0], np.cumsum(durations)])

    total = np.zeros((len(times), 3))
    total_sq = np.zeros((len(times), 3))
    for first in range(0, n_samples, LOCKSTEP_SAMPLES):
        group = range(first, min(first + LOCKSTEP_SAMPLES, n_samples))
        j = 0
        for chunk in _state_chunks(model, b3, u, v0, durations, seed, group):
            rows = slice(j, j + chunk.shape[1])
            _add_block_sums(total[rows], chunk)
            _add_block_sums(total_sq[rows], chunk**2)
            j = rows.stop
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean**2, 0.0) * n_samples / max(n_samples - 1, 1)
    se = np.sqrt(var / n_samples)

    h, d = build_spin_generator(coefficients(model, b3), u)
    markov = propagate(-(h + d), v0, times)

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

def _family_draws(model: CorrelationModel, seed: int = 0) -> list:
    """The model and one model sharing its zero pattern with generic amplitudes.

    The draw rescales each nonvanishing amplitude independently (and the
    correlation time, when present) while preserving covariance validity.
    Used to probe claims about a correlation family whose amplitudes are
    unknown phenomenological parameters rather than a single calibrated
    point.
    """
    rng = np.random.default_rng(seed)
    s1, s3 = rng.uniform(1.2, 2.5, size=2)
    r = rng.uniform(0.5, 0.95)
    tau = model.tau * rng.uniform(0.7, 1.4) if model.family == "exponential" else model.tau
    return [model, CorrelationModel(model.family, w11=model.w11 * s1,
                                    w13=model.w13 * np.sqrt(s1 * s3) * r,
                                    w33=model.w33 * s3, tau=tau)]


def family_lie_generators(model: CorrelationModel, b3: float, u: float = 1.0,
                          seed: int = 0) -> list:
    """Switched generator pairs pooled over generic draws of the family."""
    gens = []
    for draw in _family_draws(model, seed=seed):
        coeffs = coefficients(draw, b3)
        _, d = build_spin_generator(coeffs, u)
        gens.extend(switching_generators(hamiltonian_vector(coeffs, u), d))
    return gens


def family_lie_dimension(model: CorrelationModel, b3: float, u: float = 1.0,
                         seed: int = 0) -> int:
    """Dimension of the Lie algebra generated by the whole correlation family.

    With the amplitudes treated as free parameters, this is the closure of
    the pooled switched generators; for a single calibrated model use
    ``lie_closure`` on its own generator pair instead (the family dimension
    can exceed it).
    """
    return lie_closure(family_lie_generators(model, b3, u=u, seed=seed)).dim


def positivity_admissible(coeffs: SpinFieldCoefficients) -> bool:
    """True iff the dissipation matrix of the coefficients is PSD."""
    return is_positive(coefficient_matrix(coeffs))


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
    "family_lie_generators",
    "family_lie_dimension",
]
