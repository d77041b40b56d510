import math
import warnings

import mpmath
import numpy as np
import pytest

from forking import assert_no_child_left, count_forks, fail_in_workers, patch_cpus
from spinaccess import dynamics
from spinaccess import (ControlSchedule, Trajectory, UnphysicalStateError,
                        dissipation_from_kossakowski, evolve_schedule,
                        hamiltonian_matrix, is_physical, lindblad_superop,
                        propagate, sz_derivatives)
from spinaccess.coherence import PHYSICAL_TOL, purity
from spinaccess.dynamics import PROPAGATE_BLOCK, expm


def rk4_propagate(l, v0, t, steps=20000):
    """Independent fixed-step reference integrator for dv/dt = l v."""
    h = t / steps
    v = np.asarray(v0, dtype=float).copy()
    for _ in range(steps):
        k1 = l @ v
        k2 = l @ (v + 0.5 * h * k1)
        k3 = l @ (v + 0.5 * h * k2)
        k4 = l @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def random_psd_dissipation(rng):
    a = rng.standard_normal((3, 3))
    return dissipation_from_kossakowski(a @ a.T)


def test_zero_time_is_identity():
    v0 = np.array([0.1, -0.2, 0.3])
    assert np.allclose(propagate(np.full((3, 3), 2.0), v0, 0.0), v0)


def test_isotropic_decay_matches_scalar_solution():
    d = dissipation_from_kossakowski(np.eye(3))  # 4I
    v0 = np.array([0.5, 0.0, 0.0])
    for t in (0.1, 0.7, 2.5):
        v = propagate(-d, v0, t)
        assert np.allclose(v, [0.5 * np.exp(-4 * t), 0, 0], atol=1e-12)


def test_skew_generator_preserves_norm():
    rng = np.random.default_rng(20)
    for _ in range(20):
        l = -hamiltonian_matrix(rng.standard_normal(3))
        v0 = rng.uniform(-0.28, 0.28, 3)
        v = propagate(l, v0, rng.uniform(0, 5))
        assert abs(np.linalg.norm(v) - np.linalg.norm(v0)) < 1e-12


def test_halved_step_consistency():
    rng = np.random.default_rng(21)
    for _ in range(20):
        l = rng.standard_normal((3, 3))
        v0 = rng.uniform(-0.25, 0.25, 3)
        t = rng.uniform(0, 4)
        whole = propagate(l, v0, t)
        halved = propagate(l, propagate(l, v0, t / 2), t / 2)
        assert np.max(np.abs(whole - halved)) < 1e-12


def test_matches_reference_integrator():
    rng = np.random.default_rng(22)
    for _ in range(5):
        h = rng.standard_normal(3)
        d = random_psd_dissipation(rng)
        l = lindblad_superop(h, d, u=rng.standard_normal())
        l *= min(1.0, 5.0 / np.linalg.norm(l, 2))
        v0 = rng.uniform(-0.25, 0.25, 3)
        for t in (0.5, 3.0, 10.0):
            assert np.max(np.abs(propagate(l, v0, t)
                                 - rk4_propagate(l, v0, t))) < 1e-8


def test_empty_schedule():
    traj = evolve_schedule([0, 0, 1.0], np.zeros((3, 3)),
                           ControlSchedule([]), [0.3, 0, 0], dt=0.1)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0
    assert np.allclose(traj.states[0], [0.3, 0, 0])


def test_single_segment_matches_propagate():
    h = np.array([0.2, -0.1, 0.9])
    d = dissipation_from_kossakowski(np.diag([0.5, 0.2, 0.1]))
    traj = evolve_schedule(h, d, ControlSchedule([(2.0, 0.0)]), [0.4, 0.1, 0], dt=0.01)
    expected = propagate(-d, [0.4, 0.1, 0], 2.0)
    assert np.allclose(traj.final_state, expected, atol=1e-10)
    assert np.isclose(traj.times[-1], 2.0)


def test_semigroup_property_across_segments():
    h = np.array([0.0, 0.3, 1.0])
    d = dissipation_from_kossakowski(np.diag([0.4, 0.3, 0.2]))
    v0 = [0.2, -0.1, 0.4]
    split = evolve_schedule(h, d, ControlSchedule([(0.7, 1.0), (1.3, 1.0)]), v0, dt=0.05)
    joined = evolve_schedule(h, d, ControlSchedule([(2.0, 1.0)]), v0, dt=0.05)
    assert np.max(np.abs(split.final_state - joined.final_state)) < 1e-12


def test_final_state_is_product_of_segment_exponentials():
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(23)
    h = rng.standard_normal(3)
    d = random_psd_dissipation(rng)
    segs = [(rng.uniform(0.2, 1.1), float(u)) for u in rng.integers(0, 2, 5)]
    v0 = np.array([0.3, 0.2, -0.1])
    traj = evolve_schedule(h, d, ControlSchedule(segs), v0, dt=0.037)
    v = v0.copy()
    for duration, u in segs:
        v = scipy_expm(lindblad_superop(h, d, u) * duration) @ v
    assert np.max(np.abs(traj.final_state - v)) < 1e-10


def test_unphysical_initial_state_rejected():
    with pytest.raises(UnphysicalStateError):
        evolve_schedule([0, 0, 1.0], np.zeros((3, 3)),
                        ControlSchedule([(1.0, 1.0)]), [0.6, 0.0, 0.0], dt=0.1)


def test_nonpositive_durations_rejected():
    with pytest.raises(ValueError):
        ControlSchedule([(0.0, 1.0)])
    with pytest.raises(ValueError):
        ControlSchedule([(-1.0, 0.0)])


@pytest.mark.parametrize("u", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_controls_rejected(u):
    with pytest.raises(ValueError, match="controls must be finite"):
        ControlSchedule([(1.0, 1.0), (1.0, u)])


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_nonpositive_dt_rejected(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_schedule([0, 0, 1.0], np.zeros((3, 3)), ControlSchedule([(1.0, 1.0)]),
                        [0.3, 0, 0], dt)


def test_sz_derivatives_need_an_order():
    for max_order in (0, -1):
        with pytest.raises(ValueError, match="max_order"):
            sz_derivatives(np.eye(3), [0.5, 0, 0], max_order)


def test_purity_monotone_under_psd_dissipation():
    rng = np.random.default_rng(24)
    for _ in range(100):
        h = rng.standard_normal(3)
        d = random_psd_dissipation(rng)
        segs = [(rng.uniform(0.05, 0.6), float(u)) for u in rng.integers(0, 2, 4)]
        w = rng.standard_normal(3)
        v0 = w * rng.uniform(0, 0.5) / np.linalg.norm(w)
        traj = evolve_schedule(h, d, ControlSchedule(segs), v0, dt=0.05)
        assert np.all(np.diff(traj.purities) <= 1e-10)
        assert not traj.exited_ball


def test_physicality_preserved_under_psd_dissipation():
    rng = np.random.default_rng(25)
    for _ in range(50):
        h = rng.standard_normal(3)
        d = random_psd_dissipation(rng)
        traj = evolve_schedule(h, d, ControlSchedule([(3.0, 1.0)]),
                               [0.5, 0.0, 0.0], dt=0.05)
        assert np.all(traj.purities <= 0.25 + 1e-8)


def test_bloch_ball_violation_is_flagged():
    # dissipation with a negative rate blows the state out of the ball
    c = np.diag([1.0, 1.0, -2.5])
    d = dissipation_from_kossakowski(c)
    assert np.linalg.eigvalsh(d)[0] < 0
    traj = evolve_schedule([0, 0, 0], d, ControlSchedule([(2.0, 0.0)]),
                           [0.5, 0.0, 0.0], dt=0.05)
    norms = np.sqrt(traj.purities)
    assert np.max(norms) > 0.5 + 1e-6
    assert traj.exited_ball


def plain_squared_norm(v):
    """(x*x + y*y) + z*z in Python floats."""
    x, y, z = (float(c) for c in v)
    return (x * x + y * y) + z * z


def test_violation_flags_match_is_physical():
    rng = np.random.default_rng(12)
    limit = 0.25 + PHYSICAL_TOL
    # states whose |v|^2 walks through the threshold in steps of an ulp
    near = []
    for d in rng.standard_normal((200, 3)):
        v = d * np.sqrt(limit) / np.linalg.norm(d)
        for k in range(-8, 9):
            near.append([v[0] + k * np.spacing(v[0]), v[1], v[2]])
    near = np.array(near)
    assert {np.nextafter(limit, 0.0), limit, np.nextafter(limit, 1.0)} <= \
        {plain_squared_norm(v) for v in near}
    bulk = rng.standard_normal((2000, 3)) * rng.uniform(0.0, 0.6, (2000, 1))
    # a vector whose |v|^2 rounds to the limit by einsum and above it by a
    # BLAS dot product
    edge = [0.4481612222432267, 0.1710161788176681, 0.14108503272870793]
    states = np.vstack([near, bulk, [edge, [np.nan, 0, 0], [np.inf, 0, 0]]])
    traj = Trajectory(times=np.arange(len(states), dtype=float), states=states,
                      controls=np.zeros(len(states)))
    expected = [not is_physical(v) for v in states]
    assert expected == [not (plain_squared_norm(v) <= limit) for v in states]
    assert np.array_equal(traj.violations, expected)
    assert np.array_equal(traj.purities, [purity(v) for v in states], equal_nan=True)
    numbers = ~np.isnan(traj.purities)
    assert np.array_equal(traj.violations[numbers], traj.purities[numbers] > limit)
    assert traj.violations[-3] and traj.purities[-3] > limit
    assert 0 < traj.violations.sum() < len(states)


def test_sz_derivatives_zero_generator():
    assert np.allclose(sz_derivatives(np.zeros((3, 3)), [0.5, 0, 0], 4), 0.0)


def test_sz_derivatives_match_taylor_expansion():
    rng = np.random.default_rng(26)
    l = rng.standard_normal((3, 3))
    v0 = np.array([0.3, -0.2, 0.1])
    derivs = sz_derivatives(l, v0, 4)
    ts = np.logspace(-3, -1.5, 8)
    errs = []
    for t in ts:
        series = v0[2] + sum(derivs[n] * t ** (n + 1) / math.factorial(n + 1)
                             for n in range(4))
        errs.append(abs(propagate(l, v0, t)[2] - series))
    slope = np.polyfit(np.log(ts), np.log(np.maximum(errs, 1e-300)), 1)[0]
    assert slope >= 4.5


def test_sz_derivative_sign_matches_finite_difference():
    rng = np.random.default_rng(27)
    l = rng.standard_normal((3, 3))
    v0 = np.array([0.5, 0.0, 0.0])
    d1 = sz_derivatives(l, v0, 1)[0]
    eps = 1e-7
    fd = (propagate(l, v0, eps)[2] - v0[2]) / eps
    assert abs(d1 - fd) < 1e-5


def random_generators(rng, n):
    """-(Hmat(h) + D) t with |L t|_1 log-uniform over 1e-6..100."""
    out = []
    for _ in range(n):
        l = -(hamiltonian_matrix(rng.standard_normal(3) * 10 ** rng.uniform(-2, 2))
              + random_psd_dissipation(rng) * 10 ** rng.uniform(-2, 2))
        out.append(l * 10 ** rng.uniform(-6, 2) / np.abs(l).sum(axis=0).max())
    return np.array(out)


def test_expm_accuracy_against_mpmath_oracle():
    from scipy.linalg import expm as scipy_expm

    def norm1(m):
        return max(sum(abs(m[i, j]) for i in range(3)) for j in range(3))

    def rel_err(x, exact):
        return float(norm1(mpmath.matrix(x.tolist()) - exact) / norm1(exact))

    gens = random_generators(np.random.default_rng(29), 300)
    ours, theirs = [], []
    with mpmath.workdps(40):
        for l, x in zip(gens, expm(gens)):
            exact = mpmath.expm(mpmath.matrix(l.tolist()))
            ours.append(rel_err(x, exact))
            theirs.append(rel_err(scipy_expm(l), exact))
    assert max(ours) <= max(theirs)
    assert np.median(ours) <= 2.0 * np.median(theirs)


def test_expm_of_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    assert np.array_equal(expm(np.zeros((4, 3, 3))), np.broadcast_to(np.eye(3), (4, 3, 3)))


def test_expm_of_rotation_matches_rodrigues():
    rng = np.random.default_rng(30)
    for _ in range(100):
        w = hamiltonian_matrix(rng.standard_normal(3)) * 10 ** rng.uniform(-6, 1)
        angle = np.sqrt(np.sum(w * w) / 2.0)
        k = w / angle
        rodrigues = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
        assert np.max(np.abs(expm(w) - rodrigues)) < 1e-14


def test_expm_of_nilpotent_is_its_finite_series():
    # 1-norms up to 5, where no squaring is needed; squaring a large nilpotent
    # matrix costs digits, since the scaling reads |N|_1, not the powers of N
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = np.triu(rng.standard_normal((3, 3)), 1)
        n *= 10 ** rng.uniform(-3, np.log10(5.0)) / np.abs(n).sum()
        for m in (n, n.T):
            series = np.eye(3) + m + m @ m / 2.0
            assert np.max(np.abs(expm(m) - series)) <= 1e-15 * np.abs(series).max()


def test_stacked_expm_and_propagate_equal_single_calls_bitwise():
    rng = np.random.default_rng(32)
    gens = random_generators(rng, 2 * PROPAGATE_BLOCK + 3)
    stacked = expm(gens)
    assert all(np.array_equal(stacked[k], expm(g)) for k, g in enumerate(gens))
    assert np.array_equal(expm(gens[:2 * PROPAGATE_BLOCK].reshape(8, -1, 3, 3)),
                          stacked[:2 * PROPAGATE_BLOCK].reshape(8, -1, 3, 3))
    l, v0 = gens[0] / np.abs(gens[0]).max(), [0.3, -0.1, 0.2]
    times = np.sort(rng.uniform(0.0, 50.0, 2 * PROPAGATE_BLOCK + 3))
    states = propagate(l, v0, times)
    assert states.shape == (len(times), 3)
    assert all(np.array_equal(states[k], propagate(l, v0, t)) for k, t in enumerate(times))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_propagate_states_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    # one block, two blocks split at one time past PROPAGATE_BLOCK, and four
    # blocks, over one, two and three processes; the times are unsorted, so
    # the stacks that expm squares are out of order too
    patch_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(33)
    l, v0 = random_generators(rng, 1)[0], [0.3, -0.1, 0.2]
    l /= np.abs(l).max()
    for n in (PROPAGATE_BLOCK - 1, PROPAGATE_BLOCK + 1, 3 * PROPAGATE_BLOCK + 1):
        times = rng.uniform(0.0, 50.0, n)
        states = propagate(l, v0, times)
        assert states.shape == (n, 3)
        assert all(np.array_equal(states[k], propagate(l, v0, t))
                   for k, t in enumerate(times)), n


def test_propagate_forks_only_for_more_than_one_block(monkeypatch):
    # and returns an ordinary array at either size, whose memory is numpy's
    # own, not a view of some other buffer
    patch_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    l, v0 = -np.eye(3), [0.3, -0.1, 0.2]
    propagate(l, v0, 0.5)
    states = [propagate(l, v0, np.linspace(0.0, 5.0, PROPAGATE_BLOCK))]
    assert forks == []
    states.append(propagate(l, v0, np.linspace(0.0, 5.0, PROPAGATE_BLOCK + 1)))
    assert len(forks) == 1
    assert_no_child_left()
    for n, s in zip((PROPAGATE_BLOCK, PROPAGATE_BLOCK + 1), states):
        root = s
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert type(s) is np.ndarray and root.base is None
        assert s.shape == (n, 3) and s.flags.writeable


def test_propagate_raises_for_a_failed_worker(monkeypatch):
    patch_cpus(monkeypatch, 2)
    fail_in_workers(monkeypatch, dynamics, "expm")
    with pytest.raises(RuntimeError, match="1 of 1 propagation workers failed"):
        propagate(-np.eye(3), [0.3, -0.1, 0.2], np.linspace(0.0, 5.0, 2 * PROPAGATE_BLOCK))
    assert_no_child_left()


def test_propagate_rejects_negative_times():
    with pytest.raises(ValueError, match="-0.5"):
        propagate(np.eye(3), [0.1, 0, 0], [0.0, 1.0, -0.5])


@pytest.mark.parametrize("t", [float("nan"), float("inf"), [0.0, 1.0, float("nan")]])
def test_propagate_rejects_nonfinite_times(t):
    # refused before any exponential is taken, so without RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and nonnegative"):
            propagate(-np.eye(3), [0.1, 0, 0], t)


def test_propagate_rejects_nonfinite_generator_and_state():
    with pytest.raises(ValueError, match="must be finite"):
        propagate(np.full((3, 3), np.nan), [0.1, 0, 0], 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        propagate(-np.eye(3), [np.inf, 0, 0], 1.0)


def reference_evolve_schedule(h, d, sched, v0, dt):
    """The definition evolve_schedule implements, as a list-appending loop.

    Each sample is propagated alone from its segment's start state, one
    ``propagate`` call per sample; stacked and single propagation are
    checked against each other above.
    """
    times = [0.0]
    states = [np.asarray(v0, dtype=float)]
    controls = [sched.segments[0][1] if sched.segments else 0.0]
    t_origin = 0.0
    for duration, u in sched.segments:
        l = lindblad_superop(h, d, u)
        v_seg = states[-1]
        n_full = int(np.floor(duration / dt + 1e-12))
        local = [k * dt for k in range(1, n_full + 1)]
        if duration - n_full * dt > 1e-12 * dt or n_full == 0:
            local.append(duration)
        else:
            local[-1] = duration
        for tau in local:
            times.append(t_origin + tau)
            states.append(propagate(l, v_seg, tau))
            controls.append(u)
        t_origin += duration
    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      controls=np.asarray(controls))


@pytest.mark.parametrize("segments, dt", [
    ([], 0.1),                                        # empty schedule
    ([(0.03, 1.0)], 0.1),                             # shorter than dt
    ([(1.0, 1.0)], 0.25),                             # boundary exactly on the grid
    ([(0.3, 1.0)], 0.1),                              # on the grid up to rounding
    ([(1.0, 1.0)], 0.07),                             # remainder segment
    ([(1.0, 1.0), (1e-13, 0.5), (0.5, 0.0), (0.33, -2.0), (0.7, 1.5)], 0.07),
    ([(400.0, 1.0), (600.0, 0.0)], 0.01),             # 1e5 samples
], ids=["empty", "short", "on-grid", "drift", "remainder", "segments", "long"])
def test_evolve_schedule_matches_list_reference(segments, dt):
    rng = np.random.default_rng(28)
    for _ in range(3):
        h = rng.standard_normal(3)
        d = random_psd_dissipation(rng) * rng.uniform(1e-3, 1.0)
        v0 = rng.uniform(-0.28, 0.28, 3)
        sched = ControlSchedule(segments)
        got = evolve_schedule(h, d, sched, v0, dt)
        want = reference_evolve_schedule(h, d, sched, v0, dt)
        for name in ("times", "states", "purities", "controls", "violations"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_evolve_schedule_matches_list_reference_on_ball_exit():
    d = dissipation_from_kossakowski(np.diag([1.0, 1.0, -2.5]))
    sched = ControlSchedule([(2.0, 0.0), (0.13, 1.0)])
    got = evolve_schedule([0.3, 0, 1.0], d, sched, [0.5, 0.0, 0.0], dt=0.05)
    want = reference_evolve_schedule([0.3, 0, 1.0], d, sched, [0.5, 0.0, 0.0], dt=0.05)
    assert got.exited_ball
    for name in ("times", "states", "purities", "controls", "violations"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def max_abs_error(v, exact):
    """Largest |v_k - exact_k|, taken in mpmath so the difference is not rounded."""
    return float(max(abs(mpmath.mpf(float(x)) - e) for x, e in zip(v, exact)))


def test_long_schedule_samples_against_mpmath():
    # every 997th sample of the 1e5-sample schedule under weak dissipation,
    # against 40-digit exponentials from the segment start at the same local
    # times.  One exponential per sample read at most 2.3e-14 here (seed 4);
    # the stepping loop evolve_schedule used before, step @ state per sample,
    # read 4.3e-14 (seed 3) to 1.6e-13 (seed 4) on the same inputs
    segments, dt, bound = [(400.0, 1.0), (600.0, 0.0)], 0.01, 3e-14
    n_first = 40_000
    for seed in (1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        d = dissipation_from_kossakowski(2e-4 * (a @ a.T))
        w = rng.standard_normal(3)
        v0 = rng.uniform(0.2, 0.5) * w / np.linalg.norm(w)
        h = rng.standard_normal(3)
        traj = evolve_schedule(h, d, ControlSchedule(segments), v0, dt)
        stepped = [v0]
        for duration, u in segments:
            step = expm(lindblad_superop(h, d, u) * dt)
            for _ in range(round(duration / dt)):
                stepped.append(step @ stepped[-1])
        stepped = np.array(stepped)
        assert stepped.shape == traj.states.shape
        last = len(traj.times) - 1
        err_new, err_old = [], []
        with mpmath.workdps(40):
            gens = [mpmath.matrix(lindblad_superop(h, d, u).tolist()) for _, u in segments]
            starts = [mpmath.matrix(v0.tolist())]
            starts.append(mpmath.expm(gens[0] * segments[0][0]) * starts[0])
            for i in sorted({*range(997, last, 997), n_first, last}):
                j = int(i > n_first)
                tau = segments[j][0] if i in (n_first, last) else (i - j * n_first) * dt
                exact = mpmath.expm(gens[j] * mpmath.mpf(tau)) * starts[j]
                err_new.append(max_abs_error(traj.states[i], exact))
                err_old.append(max_abs_error(stepped[i], exact))
        assert max(err_new) <= bound, (seed, max(err_new))
        assert max(err_old) > bound, (seed, max(err_old))
