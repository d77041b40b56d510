"""Time propagation of the coherence vector under piecewise-constant controls.

Propagation is by matrix exponential of the 3x3 generator, so segment
evolution is exact to rounding and the semigroup composition property holds
along a schedule.  ``expm`` is the scaling-and-squaring Pade method in numpy
alone, over a stack of matrices, so propagating many times costs one call and
the package needs no scipy.  ``propagate`` takes the exponentials of its
times in blocks of PROPAGATE_BLOCK; the blocks of a longer call are spread
over forked worker processes (``workers.in_order``), which hand their states
back in order, so the states do not depend on the number of CPUs.  A
schedule's sample at time t in a segment that starts at t_seg from state
v_seg is exp(L (t - t_seg)) v_seg, one exponential from the segment start,
never a chain of steps.  Bloch-ball violations along
a trajectory are flagged at the one tolerance of ``coherence.is_physical``
(1e-9), never silently dropped and never fatal: watching an ill-posed
generator push the state out of the Bloch ball is one of the intended uses.
"""

from dataclasses import dataclass, field

import numpy as np

from .coherence import is_physical, purity
from .errors import UnphysicalStateError
from .generator import lindblad_superop
from .workers import in_order

#: Most samples a schedule may produce, ten times a 1e5-sample trajectory.
#: A CLI ``evolve`` of 999,901 samples on a 2-core host, with a worker on
#: the second core, peaked at 0.15 GB resident (the largest process) and
#: took 1.5-2.2 s as CSV and 2.3-3.4 s as JSON.
MAX_SAMPLES = 1_000_000


@dataclass
class ControlSchedule:
    """Ordered piecewise-constant control: segments of (duration, u), each
    duration positive and finite and each control u finite."""

    segments: list  # [(duration, u), ...]

    def __post_init__(self):
        segs = [(float(t), float(u)) for t, u in self.segments]
        for t, u in segs:
            if not np.isfinite(t) or t <= 0.0:
                raise ValueError(f"segment durations must be positive, got {t}")
            if not np.isfinite(u):
                raise ValueError(f"segment controls must be finite, got {u}")
        self.segments = segs

    @property
    def total_duration(self) -> float:
        return sum(t for t, _ in self.segments)


@dataclass
class Trajectory:
    """Sampled coherence-vector path with control bookkeeping.

    The purities |v|^2 and the Bloch-ball flags follow from the states.
    """

    times: np.ndarray          # (m,)
    states: np.ndarray         # (m, 3)
    controls: np.ndarray       # (m,), control value in effect at each sample
    purities: np.ndarray = field(init=False)    # (m,), |v|^2
    violations: np.ndarray = field(init=False)  # (m,) bool, outside Bloch ball

    def __post_init__(self):
        self.purities = purity(self.states)
        self.violations = ~is_physical(self.states)

    @property
    def exited_ball(self) -> bool:
        """True when any sample left the Bloch ball beyond tolerance."""
        return bool(np.any(self.violations))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


#: Coefficients b_0..b_13 of the degree-13 Pade approximant of exp.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)

#: Largest 1-norm at which the degree-13 approximant meets double precision.
_THETA13 = 5.371920351148152

#: Times whose exponentials ``propagate`` stacks in one ``expm`` call; a
#: block holds about 0.8 MB of temporaries.
PROPAGATE_BLOCK = 1024


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a 3x3 matrix or of a stack of them, (..., 3, 3).

    Scaling and squaring with the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 2005): each matrix is scaled by 2^-s, with s
    the least nonnegative integer that brings its 1-norm to at most
    _THETA13, and the approximant is squared s times.  The approximant is
    evaluated as I + 2 (V - U)^-1 U, which keeps the small-norm steps as
    accurate as scipy's ``expm``.  Every matrix of a stack goes through the
    same operations as it would alone, so a stacked call equals the
    per-matrix calls bit for bit: a stack is ordered by s once, so each
    squaring acts on the leading matrices that still need it.
    """
    a = np.asarray(a, dtype=float)
    x = a.reshape(-1, 3, 3)
    mant, exp2 = np.frexp(np.abs(x).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(exp2 - (mant == 0.5), 0)
    x = np.ldexp(x, -s[:, None, None])
    b = _PADE13
    eye = np.eye(3)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    if len(s) == 1:
        for _ in range(s[0]):
            r = r @ r
    elif s.any():
        # ordered by s, the matrices still to square lead the stack
        order = np.argsort(-s, kind="stable")
        ordered = r[order]
        for n in np.count_nonzero(s[:, None] > np.arange(s.max()), axis=0):
            ordered[:n] = ordered[:n] @ ordered[:n]
        r[order] = ordered
    return r.reshape(a.shape)


def propagate(l: np.ndarray, v0: np.ndarray, t) -> np.ndarray:
    """Evolve v0 under the constant generator: exp(l t) v0.

    ``t`` is one time, giving one state (3,), or an array of times, giving
    one state per time, (..., 3).  The exponentials of PROPAGATE_BLOCK
    times are computed per ``expm`` call, and every state equals the one
    propagated for its time alone.  Up to PROPAGATE_BLOCK times take one
    call in this process.  More have their blocks spread over this process
    and forked workers, one per CPU this process may run on, and copied in
    order into the result, an ordinary array at every size.  A worker that
    fails raises RuntimeError.  A negative or non-finite time and a
    non-finite generator or state raise ValueError before any work.
    """
    times = np.asarray(t, dtype=float)
    bad = times[~(np.isfinite(times) & (times >= 0.0))]
    if bad.size:
        raise ValueError(f"propagation time must be finite and nonnegative, got {bad[0]}")
    l = np.asarray(l, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not (np.isfinite(l).all() and np.isfinite(v0).all()):
        raise ValueError("generator and initial state must be finite")
    flat = times.reshape(-1)
    if len(flat) <= PROPAGATE_BLOCK:
        return (expm(l * flat[:, None, None]) @ v0).reshape(times.shape + (3,))
    blocks = [slice(i, i + PROPAGATE_BLOCK) for i in range(0, len(flat), PROPAGATE_BLOCK)]
    out = np.empty((len(flat), 3))

    def take(b, states):
        out[blocks[b]] = np.frombuffer(states).reshape(-1, 3)

    in_order(len(blocks), lambda b: expm(l * flat[blocks[b], None, None]) @ v0, take,
             "propagation")
    return out.reshape(times.shape + (3,))


def sample_times(duration: float, dt: float) -> np.ndarray:
    """Times dt, 2 dt, ... and then ``duration`` exactly, after a span's start.
    Where the grid ends within 1e-12 dt of ``duration``, the end replaces its
    last point: the slack is relative, so the count is the same in any unit."""
    n_full = int(np.floor(duration / dt + 1e-12))
    extra = duration - n_full * dt > 1e-12 * dt or n_full == 0
    return np.append(np.arange(1, n_full + extra) * dt, duration)


def evolve_schedule(h: np.ndarray, d: np.ndarray, sched: ControlSchedule,
                    v0: np.ndarray, dt: float) -> Trajectory:
    """Propagate through a control schedule, sampling every dt.

    A segment starting at t_seg from state v_seg samples exp(L (t - t_seg))
    v_seg at t_seg plus each of ``sample_times(duration, dt)``, so its last
    sample is exp(L duration) v_seg and the final state is the ordered
    product of segment exponentials applied to v0.  Samples outside the
    Bloch ball beyond ``coherence.PHYSICAL_TOL`` are flagged in ``violations``.

    Raises
    ------
    ValueError
        If dt is not positive, or the schedule needs more than MAX_SAMPLES
        samples.
    UnphysicalStateError
        If the initial state lies outside the Bloch ball.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_samples = 1.0 + sum(t / dt + 1.0 for t, _ in sched.segments)
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"schedule of duration {sched.total_duration:g} at dt = {dt:g} "
                         f"needs about {n_samples:.3g} samples, more than {MAX_SAMPLES}")
    v0 = np.asarray(v0, dtype=float)
    if not is_physical(v0):
        raise UnphysicalStateError(f"initial state |v0| = {np.linalg.norm(v0)} > 1/2")

    times = [[0.0]]
    states = [[v0]]
    controls = [[sched.segments[0][1] if sched.segments else 0.0]]
    t_origin = 0.0
    for duration, u in sched.segments:
        local = sample_times(duration, dt)
        times.append(t_origin + local)
        states.append(propagate(lindblad_superop(h, d, u), states[-1][-1], local))
        controls.append(np.full(len(local), u))
        t_origin += duration
    return Trajectory(times=np.concatenate(times), states=np.concatenate(states),
                      controls=np.concatenate(controls))


def sz_derivatives(l: np.ndarray, v0: np.ndarray, max_order: int) -> np.ndarray:
    """Time derivatives of the z polarization at t = 0.

    Returns [(l^n v0)_3 for n = 1..max_order]: the n-th derivative of the
    z component along the semigroup flow, so the order-1 entry is the
    initial growth rate of the polarization.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    l = np.asarray(l, dtype=float)
    v = np.asarray(v0, dtype=float).copy()
    out = np.empty(max_order)
    for k in range(max_order):
        v = l @ v
        out[k] = v[2]
    return out
