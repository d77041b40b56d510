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

A Monte Carlo sample's noise and states are the same in any lockstep group
of samples, under any BLAS kernel and any number of workers; the Markov
reference is not.

The modules ``cones``, ``liealg``, ``dynamics`` and ``workers`` are imported
by the functions that use them: ``spinaccess spin-field``, which builds a
model, its generator and the two admissibility tests, loads only ``cones``
of them.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError, StepSizeError
from .generator import (HMAT_FACTOR, dissipation_from_kossakowski, hamiltonian_matrix,
                        is_psd, vec6_to_sym)

#: Names of the correlation families.
FAMILIES = ("zero", "white", "exponential")

#: PSD tolerance of the (beta_1, beta_3) covariance, relative to its norm.
_COV_TOL = 1e-12

#: Most realizations times steps one Monte Carlo run may take, five times
#: the 2000 x 1000 README run.  Each realization is charged at least
#: NOISE_CHUNK steps, for its generator and its per-chunk calls: a
#: realization of one step draws one step of noise.  At the bound, on a
#: 2-core host in a slow period, a CLI ``montecarlo`` of 100 samples of 1e5
#: steps, one lockstep group and so one process, took 2.5 s white and 2.9 s
#: exponential, most of it in the per-step rotation, and peaked at 55-56 MB
#: resident (37 MB for 100 steps; the rest is the report's per-time
#: arrays); 156,250 samples of one step, 153 groups over two processes,
#: took 0.4 s (0.6 s in one process) and peaked at 39 MB.
MAX_SAMPLE_STEPS = 10_000_000


@dataclass
class CorrelationModel:
    """Two-time correlation family of the stochastic field components.

    ``w11``, ``w13``, ``w33`` are the covariance amplitudes of
    (beta_1, beta_3); for the white family they carry an extra unit of time.
    They must form a PSD covariance (``generator.is_psd``, at any scale).
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
        if not is_psd(self.covariance, _COV_TOL):
            raise InvalidModelError(
                f"amplitudes {(self.w11, self.w13, self.w33)} do not form a PSD covariance")
        if self.family == "exponential" and not 0.0 < self.tau < np.inf:
            raise InvalidModelError(
                f"exponential family needs 0 < tau < inf, got {self.tau}")

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

    Where (2 b3 tau)^2 or tau^2 is not a double, 1/den, tau/den and
    2 b3 tau^2/den are formed without them; a coefficient that overflows
    all the same is inf, which ``build_spin_generator`` refuses.
    """
    if model.family == "zero":
        return SpinFieldCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, b3)
    if model.family == "white":
        return SpinFieldCoefficients(
            c11=model.w11, c12=0.0, c13=model.w13, c23=0.0, c33=model.w33,
            omega1=0.0, omega2=0.0, omega3=0.0, b3=b3)
    tau = model.tau
    rate = HMAT_FACTOR * b3  # precession rate about the mean field
    x = rate * tau
    if abs(x) < 2.0**512 and tau < 2.0**512:  # both squares are doubles
        den = 1.0 + x**2
        c11 = 2.0 * model.w11 * tau / den
        c12 = model.w11 * rate * tau**2 / den
        c23 = model.w13 * rate * tau**2 / den
        inv_den = 1.0 / den
    else:  # from 1/den, tau/den and tau x/den, squaring neither tau nor |x| > 1
        if abs(x) <= 1.0:
            inv_den = 1.0 / (1.0 + x * x)
            tau_den, tau_x_den = tau * inv_den, tau * x * inv_den
        else:  # by s = 1/x, formed as (tau/x)/tau, as x may overflow
            tau_x = 1.0 / rate
            s = tau_x / tau
            q = 1.0 / (1.0 + s * s)  # x^2/den
            tau_den, tau_x_den, inv_den = tau_x * s * q, tau_x * q, s * s * q
        c11, c12, c23 = 2.0 * model.w11 * tau_den, model.w11 * tau_x_den, model.w13 * tau_x_den
    return SpinFieldCoefficients(
        c11=c11,
        c12=c12,
        c13=model.w13 * tau * (inv_den + 1.0),
        c23=c23,
        c33=2.0 * model.w33 * tau,
        omega1=c23,
        omega2=model.w13 * tau * (inv_den - 1.0),
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
    ValueError where either overflows, as for |u b3| near the largest double.
    """
    with np.errstate(over="ignore"):  # refused below
        h = hamiltonian_matrix(hamiltonian_vector(coeffs, u))
    d = dissipation_from_kossakowski(coefficient_matrix(coeffs))
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian matrix overflows")
    return h, d


def cp_admissible(coeffs: SpinFieldCoefficients) -> bool:
    """True iff the coefficient matrix C of the coefficients is PSD.

    As c22 = 0, a rotating-frame coupling c12 or c23 makes C indefinite.
    Vanishing and white-noise correlations pass, exponential ones only at
    small b3 tau, where lambda_min(C) / |C|_F is about -(b3 tau)^2 at any
    amplitude."""
    from .cones import is_completely_positive

    return is_completely_positive(coefficient_matrix(coeffs))


# ---------------------------------------------------------------------------
# Monte Carlo sampling of the per-realization unitary dynamics
# ---------------------------------------------------------------------------

def _cov_sqrt(cov: np.ndarray) -> np.ndarray:
    """Square root, tolerant of singular covariances, summed from the eigenpairs
    elementwise so that its rounding depends on no BLAS kernel.  It is symmetric
    to rounding only (2 ulps apart off the diagonal for the README white
    covariance), and is not mirrored, which would change every ensemble."""
    vals, vecs = np.linalg.eigh(cov)
    scaled = vecs * np.sqrt(np.maximum(vals, 0.0))
    return scaled[:, None, 0] * vecs[:, 0] + scaled[:, None, 1] * vecs[:, 1]


def _time_grid(dt: float, t_final: float, n_samples: int = 1) -> np.ndarray:
    """Grid times of [0, t_final]: 0 and ``dynamics.sample_times(t_final, dt)``.

    Raises ValueError, before allocating, when ``n_samples`` realizations
    on the grid, each charged at least NOISE_CHUNK steps for its generator
    and its per-chunk calls (not for noise: it draws no more steps than the
    grid has), would exceed MAX_SAMPLE_STEPS.
    """
    from .dynamics import sample_times

    if not (dt > 0 and t_final > 0):
        raise ValueError("dt and t_final must be positive")
    if n_samples * max(t_final / dt, NOISE_CHUNK) > MAX_SAMPLE_STEPS:
        raise ValueError(f"{n_samples} samples of {t_final / dt:.3g} steps, each "
                         f"charged at least {NOISE_CHUNK}, exceed {MAX_SAMPLE_STEPS} "
                         f"sample-steps")
    return np.append(0.0, sample_times(t_final, dt))


#: Steps of noise drawn per call of a sample's generator.  A call costs
#: about 1.7 us on a 2-core host; the draws held take 16 bytes per sample
#: and step, beside about 0.8 kB per sample for its generator.
NOISE_CHUNK = 64

#: Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx):
#: the (initial value, multiplier) of the entropy hash and of the state
#: output hash, and the two multipliers of the pool mix.
_HASH_ENTROPY = (0x43B0D7E5, 0x931E8875)
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)
_MIX = (0xCA01F9DD, 0x4973F715)


def _stream_seeds(seed, sample_indices) -> np.ndarray:
    """The words ``SeedSequence([seed, k]).generate_state(4, np.uint64)`` of
    each sample k, (samples, 4) uint64, from which PCG64 seeds the stream of
    ``default_rng([seed, k])``.

    For an integer seed they are computed for all samples at once, by
    numpy's hash in uint32 arithmetic on arrays of samples; any other seed
    numpy takes (a string, a sequence) gets one SeedSequence per sample.
    The seed must be one numpy takes (``_check_mc_preconditions``), and
    each k below 2**32, one entropy word.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        return np.array([np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
                         for k in sample_indices])
    # the entropy words: the seed's, least significant first, then k
    words = np.frombuffer(seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little"),
                          dtype="<u4")
    keys = np.asarray(sample_indices, dtype=np.uint32)
    entropy = [np.full(len(keys), w, dtype=np.uint32) for w in words] + [keys]
    shift = np.uint32(16)

    def hasher(const, mult):
        # numpy's hashmix: each call xors in a running constant, advances it
        # and multiplies by it
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint32(const)
            return value ^ (value >> shift)
        return hashmix

    def mix(x, y):
        value = x * np.uint32(_MIX[0]) - y * np.uint32(_MIX[1])
        return value ^ (value >> shift)

    # a pool of four words: the first entropy words hashed (zeros past the
    # entropy), every word mixed into every other, then the rest of the
    # entropy mixed into each
    hashmix = hasher(*_HASH_ENTROPY)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(keys))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight output words from the pool in turn, paired little-endian
    output = hasher(*_HASH_STATE)
    state = np.array([output(pool[i % 4]) for i in range(8)], dtype=np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T.copy()


def _sample_generators(seed, sample_indices) -> list:
    """The generators ``default_rng([seed, k])`` of the samples k, each
    seeded from its row of ``_stream_seeds`` instead of a SeedSequence."""

    # defined here, as numpy.random is loaded only when noise is drawn: it
    # would cost every cold process of the package 6 ms
    class Seeded(np.random.bit_generator.ISeedSequence):
        """The four uint64 words a PCG64 asks for, computed beforehand."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(Seeded(row)))
            for row in _stream_seeds(seed, sample_indices)]


#: Steps whose rotation axes and angles are computed in one pass.  Their
#: arrays, 57 bytes per sample and step, are allocated once per lockstep
#: group and reused; each chunk's states, 24 bytes per sample and step, are
#: new.
ROTATION_CHUNK = 8

#: Samples advanced together; larger ensembles run in consecutive groups,
#: and a group is the unit of work spread over the available CPUs.  A
#: group holds about 3 MB.  The benchmark's 2000 bivariate samples of 1000
#: steps ran 4% faster in one serial group than in two, at a traced peak
#: of 5.6 MB against 2.9 MB, but one group leaves every other core idle:
#: on a 2-core host, two groups on two processes took 107-121 ms where one
#: serial group took 185-248 ms (medians of 9, in one slow period).
LOCKSTEP_SAMPLES = 1024


def _state_chunks(model, b3, u, v0, durations, seed, sample_indices):
    """Yield the states at consecutive chunks of grid times, (times, 3, samples).

    The first chunk is v0 alone.  Each sample k draws from an independent
    stream, that of ``default_rng([seed, k])``, so ensemble runs are
    reproducible and any single member can be regenerated in isolation; the
    streams of a group are seeded in one pass (``_sample_generators``).
    Every stream is drawn NOISE_CHUNK steps at a time, so the noise held
    does not grow with the number of steps, and the draws equal those of
    one whole draw per stream.
    The draws are correlated with the covariance root elementwise, two
    products and a sum per component, so a sample's field values, and so
    its states, are the same in any group of samples and under any BLAS
    kernel.  Each step is the exact precession v -> R(HMAT_FACTOR * h, dt) v
    about the field h = (beta_1, 0, u b3 + beta_3) held on it: all samples
    advance together, one step at a time, by the Rodrigues formula
    v cos + (a x v) sin + a (a . v)(1 - cos), written per component for the
    unit axis a = (a1, 0, a3).

    Each rotation chunk's draws are copied once, transposed, from the
    sample-major noise into component planes (2, steps, samples), so every
    later call reads and writes rows of samples that lie contiguous in
    memory: the correlation and the axes act on whole (steps, samples)
    planes, the exponential recursion on one step's (2, samples) fields, and
    the rotation on one step's (samples,) rows.  All of them write into
    arrays allocated once per call, so no step allocates array memory; only
    each chunk of states, which is yielded, is new.  The last states are
    kept apart before each yield, so the caller may overwrite a chunk.
    """
    n_steps = len(durations)
    root = _cov_sqrt(model.covariance)
    rngs = _sample_generators(seed, sample_indices)
    white = model.family == "white"
    if white:
        scale = 1.0 / np.sqrt(durations)
    else:
        # stationary bivariate Ornstein-Uhlenbeck chain with exact one-step
        # conditional updates (Gillespie 1996), the field held at the
        # step-start value: draw 0 is the stationary initial value, draw j
        # the innovation into step j
        phi = np.exp(-durations / model.tau)
        innov = np.sqrt(1.0 - phi**2)
    n = len(rngs)
    chunk = np.repeat(np.asarray(v0, dtype=float)[None, :, None], n, axis=2)
    draws = np.empty((n, NOISE_CHUNK, 2))
    # one rotation chunk's arrays, every step a contiguous row of samples:
    # as (component, step, sample) the draws, later the squared axes, and
    # the fields, later the unit axes; as (step, sample) the angles, later
    # their sines, the cosines and one minus them; the exponential family's
    # field carried into the next chunk; and three rows for the rotation
    planes, fields = np.empty((2, 2, ROTATION_CHUNK, n))
    angles, cosines, omcs = np.empty((3, ROTATION_CHUNK, n))
    still = np.empty((ROTATION_CHUNK, n), dtype=bool)
    carry = np.empty((2, n))
    last = np.empty((3, n))  # the states the next rotation chunk starts from
    dot, tmp, tmp2 = np.empty((3, n))
    # bound once: the per-step loops below make 25 calls a step
    mul, add, sub = np.multiply, np.add, np.subtract
    for start in range(0, n_steps, NOISE_CHUNK):
        z = draws[:, :n_steps - start]
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        for lo in range(0, z.shape[1], ROTATION_CHUNK):
            first = start + lo
            k = min(ROTATION_CHUNK, z.shape[1] - lo)
            steps = slice(first, first + k)
            zt, f = planes[:, :k], fields[:, :k]
            np.copyto(zt, z[:, lo:lo + k].transpose(2, 1, 0))
            prod = cosines[:k]
            for field, (r1, r2) in zip(f, root):
                np.multiply(zt[0], r1, out=field)
                np.multiply(zt[1], r2, out=prod)
                field += prod
            if white:
                f *= scale[steps, None]
            else:
                # beta_j = innov_{j-1} z_j + phi_{j-1} beta_{j-1} for j > 0:
                # the innovations scaled in one pass, then summed in turn
                j0 = max(first, 1)
                f[:, j0 - first:] *= innov[j0 - 1:first + k - 1, None]
                prod = zt[:, 0]
                prev = carry if first else f[:, 0]
                for j in range(j0, first + k):
                    mul(prev, phi[j - 1], prod)
                    prev = f[:, j - first]
                    add(prev, prod, prev)
                np.copyto(carry, prev)
            np.copyto(last, chunk[-1])
            yield chunk
            # the unit axes (a1, a3) in place of the fields, and the angles
            f[1] += u * b3
            f *= HMAT_FACTOR
            sq = np.square(f, out=zt)
            speed = np.add(sq[0], sq[1], out=angles[:k])
            np.sqrt(speed, out=speed)
            stopped = np.less(speed, 1e-300, out=still[:k])
            if stopped.any():
                np.divide(f, speed, out=f, where=~stopped)
                np.copyto(f, 0.0, where=stopped)
            else:
                np.divide(f, speed, out=f)
            theta = np.multiply(speed, durations[steps, None], out=speed)
            cos_t = np.cos(theta, out=cosines[:k])
            omc = np.subtract(1.0, cos_t, out=omcs[:k])
            sin_t = np.sin(theta, out=theta)
            states, chunk = last, np.empty((k, 3, n))
            for a1, a3, c, s, o, new in zip(*f, cos_t, sin_t, omc, chunk):
                v1, v2, v3 = states
                n1, n2, n3 = new
                # dot = a1 v1 + a3 v3
                mul(a1, v1, dot)
                mul(a3, v3, tmp)
                add(dot, tmp, dot)
                # n1 = (v1 c - (a3 v2) s) + (a1 dot) o
                mul(v1, c, n1)
                mul(a3, v2, tmp)
                mul(tmp, s, tmp)
                sub(n1, tmp, n1)
                mul(a1, dot, tmp)
                mul(tmp, o, tmp)
                add(n1, tmp, n1)
                # n2 = v2 c + (a3 v1 - a1 v3) s
                mul(v2, c, n2)
                mul(a3, v1, tmp)
                mul(a1, v3, tmp2)
                sub(tmp, tmp2, tmp)
                mul(tmp, s, tmp)
                add(n2, tmp, n2)
                # n3 = (v3 c + (a1 v2) s) + (a3 dot) o
                mul(v3, c, n3)
                mul(a1, v2, tmp)
                mul(tmp, s, tmp)
                add(n3, tmp, n3)
                mul(a3, dot, tmp)
                mul(tmp, o, tmp)
                add(n3, tmp, n3)
                states = new
    yield chunk


def _check_mc_preconditions(model: CorrelationModel, b3: float, u: float, v0, dt: float,
                            seed):
    """Refuse, before any noise is drawn, what sampling cannot run or would
    fill with NaN, and a seed ``default_rng([seed, k])`` would refuse, with
    numpy's own error."""
    if model.family == "zero":
        raise InvalidModelError("Monte Carlo sampling needs a white or exponential family")
    if model.family == "exponential" and dt > model.tau / 10.0:
        raise StepSizeError(
            f"dt = {dt} too coarse for correlation time {model.tau}; need dt <= tau/10")
    if not np.isfinite([b3, u]).all():
        raise ValueError(f"b3 and u must be finite, got b3 = {b3}, u = {u}")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (3,) or not np.isfinite(v0).all():
        raise ValueError(f"v0 must be three finite numbers, got {v0.tolist()}")
    np.random.SeedSequence([seed, 0])  # raises for a seed numpy does not take


def mc_sample(model: CorrelationModel, b3: float, u: float, v0: np.ndarray,
              dt: float, t_final: float, seed: int) -> "Trajectory":
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
    ValueError
        For a non-finite b3, u or v0, or a v0 that is not three numbers.
    ValueError, TypeError
        With numpy's message, for a seed ``default_rng([seed, k])`` refuses,
        such as -1 or 1.5.
    """
    from .dynamics import Trajectory

    _check_mc_preconditions(model, b3, u, v0, dt, seed)
    times = _time_grid(dt, t_final)
    states = np.concatenate([chunk[..., 0] for chunk in
                             _state_chunks(model, b3, u, v0, np.diff(times), seed, [0])])
    return Trajectory(times=times, states=states, controls=np.full(len(times), float(u)))


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


def _group_statistics(model, b3, u, v0, durations, seed, group):
    """One lockstep group's per-time mean and its sum of squares about that
    mean, stacked as (2, times, 3)."""
    out = np.empty((2, len(durations) + 1, 3))
    j = 0
    for chunk in _state_chunks(model, b3, u, v0, durations, seed, group):
        rows = slice(j, j + len(chunk))
        group_mean = chunk.mean(axis=2, out=out[0, rows])
        # centred in place, as _state_chunks keeps the last states apart
        np.subtract(chunk, group_mean[..., None], out=chunk)
        np.einsum("ijk,ijk->ij", chunk, chunk, out=out[1, rows])
        j = rows.stop
    return out


def _ensemble_statistics(model, b3, u, v0, durations, seed, n_samples):
    """The ensemble's per-time mean and sum of squares about it, each (times, 3),
    merged a group at a time in the order ``workers.in_order`` hands them over."""
    from .workers import in_order

    groups = [range(first, min(first + LOCKSTEP_SAMPLES, n_samples))
              for first in range(0, n_samples, LOCKSTEP_SAMPLES)]
    mean = np.zeros((len(durations) + 1, 3))
    m2 = np.zeros_like(mean)

    def merge(g, stats):
        group = groups[g]
        group_mean, sq = np.frombuffer(stats).reshape(2, -1, 3)
        delta = group_mean - mean
        mean[...] += delta * (len(group) / group.stop)
        m2[...] += sq
        m2[...] += delta**2 * (group.start * len(group) / group.stop)

    in_order(len(groups), lambda g: _group_statistics(
        model, b3, u, v0, durations, seed, groups[g]), merge, "Monte Carlo")
    return mean, m2


def mc_validate(model: CorrelationModel, b3: float, u: float, v0: np.ndarray,
                dt: float, t_final: float, n_samples: int,
                seed: int) -> MCValidationReport:
    """Compare the noise-ensemble mean against the Markovian generator.

    Averages ``n_samples`` realizations (sub-seeded deterministically from
    ``seed``), propagates the same initial state with the closed-form
    generator, and reports componentwise deviations with their standard
    errors, both at 0 and ``sample_times(t_final, dt)``, as ``evolve_schedule``
    samples a segment of duration t_final.  Inputs ``mc_sample`` refuses,
    and fewer than 100 samples, raise before any noise is drawn.

    Up to LOCKSTEP_SAMPLES realizations advance together, one time step at
    a time, their noise drawn NOISE_CHUNK steps at a time, so the memory
    held grows with neither the number of samples nor that of steps, beside
    the report's per-time arrays.  The groups run on up to one process per
    CPU this process may use, all but one of them forked workers (``taskset``
    limits them).  Each group's mean and centred sum of squares at each time
    reach this process in group order and are merged into the running ones
    as they arrive (Chan, Golub & LeVeque, Amer. Statist. 37, 1983), so no
    array holds every group's, and the standard error does not lose digits
    to cancellation when the spread is small against the mean.  A sample's
    states are the same in any group, under any BLAS kernel and on any
    number of workers, so ``mean_states`` and ``standard_error`` depend on
    the seed alone; ``markov_states`` depend on the LAPACK kernel in their
    last bits.

    Raises RuntimeError, after every worker has ended, when a worker fails,
    and ValueError where the mean or the reference is not finite.

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
    from .dynamics import propagate

    _check_mc_preconditions(model, b3, u, v0, dt, seed)
    times = _time_grid(dt, t_final, n_samples)
    mean, m2 = _ensemble_statistics(model, b3, u, v0, np.diff(times), seed, n_samples)
    se = np.sqrt(m2 / (n_samples - 1) / n_samples)

    h, d = build_spin_generator(coefficients(model, b3), u)
    markov = propagate(-(h + d), v0, times)

    dev = np.abs(mean - markov)
    if not np.isfinite([dev, se]).all():
        raise ValueError(f"Monte Carlo mean or Markov reference not finite at b3 = {b3}, dt = {dt}")
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

def family_lie_generators(model: CorrelationModel, b3: float) -> list:
    """Generators spanning the switched generators of every member of the family.

    The family is every model with the zero pattern of ``model``'s
    amplitudes, at any correlation time for the exponential family.  At
    fixed tau, D and the noise part of h are linear in (w11, w13, w33), so
    the unit-amplitude models the pattern allows span them, beside the
    control field Hmat(b3 z), whose direction every nonzero control spans.
    In tau the coefficients are rational with the common denominator
    1 + (2 b3 tau)^2 and numerators of degree at most 3, so four distinct
    correlation times reach their whole span.  Nothing is drawn.
    """
    units = (({"w11": 1.0}, model.w11), ({"w33": 1.0}, model.w33),
             ({"w11": 1.0, "w13": 1.0, "w33": 1.0}, model.w13))
    taus = [model.tau]
    if model.family == "exponential":
        taus = [model.tau * f for f in (1.0, 0.7, 1.2, 1.4)]
    gens = [hamiltonian_matrix([0.0, 0.0, b3])]
    for tau in taus:
        for amps, present in units:
            if present:
                coeffs = coefficients(CorrelationModel(model.family, tau=tau, **amps), b3)
                gens.extend(build_spin_generator(coeffs, u=0.0))
    return gens


def family_lie_dimension(model: CorrelationModel, b3: float) -> int:
    """Dimension of the Lie algebra generated by the whole correlation family.

    With the amplitudes treated as free parameters, this is the closure of
    the switched generators of all members; for a single calibrated model
    use ``lie_closure`` on its own generator pair instead (the family
    dimension can exceed it).
    """
    from .liealg import lie_closure

    return lie_closure(family_lie_generators(model, b3)).dim


def positivity_admissible(coeffs: SpinFieldCoefficients) -> bool:
    """True iff the dissipation matrix of the coefficients is PSD."""
    from .cones import is_positive

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
