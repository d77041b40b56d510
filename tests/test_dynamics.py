import math

import numpy as np
import pytest

from spinaccess import (ControlSchedule, Trajectory, UnphysicalStateError,
                        dissipation_from_kossakowski, evolve_schedule,
                        hamiltonian_matrix, is_physical, lindblad_superop,
                        propagate, sz_derivatives)
from spinaccess.dynamics import VIOLATION_TOL


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
    from scipy.linalg import expm

    rng = np.random.default_rng(23)
    h = rng.standard_normal(3)
    d = random_psd_dissipation(rng)
    segs = [(rng.uniform(0.2, 1.1), float(u)) for u in rng.integers(0, 2, 5)]
    v0 = np.array([0.3, 0.2, -0.1])
    traj = evolve_schedule(h, d, ControlSchedule(segs), v0, dt=0.037)
    v = v0.copy()
    for duration, u in segs:
        v = expm(lindblad_superop(h, d, u) * duration) @ v
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


def test_violation_flags_match_is_physical():
    rng = np.random.default_rng(12)
    limit = 0.25 + VIOLATION_TOL
    # states whose |v|^2 walks through the threshold in steps of an ulp
    near = []
    for d in rng.standard_normal((200, 3)):
        v = d * np.sqrt(limit) / np.linalg.norm(d)
        for k in range(-8, 9):
            near.append([v[0] + k * np.spacing(v[0]), v[1], v[2]])
    near = np.array(near)
    assert {np.nextafter(limit, 0.0), limit, np.nextafter(limit, 1.0)} <= \
        {v @ v for v in near}
    bulk = rng.standard_normal((2000, 3)) * rng.uniform(0.0, 0.6, (2000, 1))
    states = np.vstack([near, bulk, [[np.nan, 0, 0], [np.inf, 0, 0]]])
    traj = Trajectory(times=np.arange(len(states), dtype=float), states=states,
                      purities=np.einsum("ij,ij->i", states, states),
                      controls=np.zeros(len(states)))
    expected = [not is_physical(v, VIOLATION_TOL) for v in states]
    assert np.array_equal(traj.violations, expected)
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


def reference_evolve_schedule(h, d, sched, v0, dt):
    """The list-appending loop evolve_schedule replaced, kept as its reference."""
    from scipy.linalg import expm

    v0 = np.asarray(v0, dtype=float)
    times = [0.0]
    states = [v0.copy()]
    controls = [sched.segments[0][1] if sched.segments else 0.0]
    t_origin = 0.0
    v = v0.copy()
    for duration, u in sched.segments:
        l = lindblad_superop(h, d, u)
        step = expm(l * dt)
        n_full = int(np.floor(duration / dt + 1e-12))
        v_seg = v
        for k in range(1, n_full + 1):
            v_seg = step @ v_seg
            times.append(t_origin + k * dt)
            states.append(v_seg)
            controls.append(u)
        remainder = duration - n_full * dt
        if remainder > 1e-12 or n_full == 0:
            v_seg = expm(l * remainder) @ v_seg
            times.append(t_origin + duration)
            states.append(v_seg)
            controls.append(u)
        else:
            times[-1] = t_origin + duration
        v = v_seg
        t_origin += duration
    states = np.asarray(states)
    return Trajectory(times=np.asarray(times), states=states,
                      purities=np.einsum("ij,ij->i", states, states),
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
