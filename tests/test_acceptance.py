"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""

import time

import numpy as np
from scipy.integrate import quad

from spinaccess import (ControlSchedule, CorrelationModel, ParamSubspace,
                        build_spin_generator, classify_subspace, coefficients,
                        dissipation_from_kossakowski, evolve_schedule,
                        family_lie_dimension, is_completely_positive,
                        is_positive, kossakowski_from_dissipation, lie_closure,
                        mc_validate, propagate, switching_generators,
                        sz_derivatives, rank_drop_certificate)

from pattern_library import PATTERNS, build


def timed(compute):
    """Result and seconds of ``compute()``, run once first untimed.

    The untimed run loads the lazily imported modules and fills caches, so
    the clock measures the computation rather than the cold start.
    """
    compute()
    start = time.perf_counter()
    result = compute()
    return result, time.perf_counter() - start


def report(num, name, passed):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def qubit_pattern(c11, c22, c12=0.0, c13=0.0, c23=0.0):
    return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, 0.0]])


def switched_dim(c, h):
    d = dissipation_from_kossakowski(c)
    return lie_closure(switching_generators(h, d)).dim


def test_criterion_01_switched_dimension_table():
    z = [0.0, 0.0, 1.0]
    x = [1.0, 0.0, 0.0]
    dims, elapsed = timed(lambda: (
        switched_dim(qubit_pattern(1.0, 1.0, c13=0.3, c23=0.7), z),
        switched_dim(np.diag([1.0, 1.0, 0.0]), z),
        switched_dim(qubit_pattern(0.9, 0.4, c13=0.3, c23=0.7), z),
        switched_dim(np.diag([0.9, 0.4, 0.0]), z),
        switched_dim(qubit_pattern(0.9, 0.4, c23=0.7), x),
        switched_dim(np.diag([0.9, 0.4, 0.0]), x),
    ))
    report(1, "switched-system dimension table",
           dims == (9, 2, 9, 4, 4, 4) and elapsed < 1.0)


def test_criterion_02_correlation_family_dimensions():
    b3 = 1.0
    dims, elapsed = timed(lambda: (
        family_lie_dimension(CorrelationModel("white", w33=1.0), b3),
        family_lie_dimension(CorrelationModel("white", w11=1.0, w33=1.0), b3),
        family_lie_dimension(CorrelationModel("white", w11=1.0, w13=0.5, w33=1.0), b3),
        family_lie_dimension(
            CorrelationModel("exponential", w11=1.0, w13=0.2, w33=1.0, tau=0.5), b3),
    ))
    report(2, "correlation-family dimensions",
           dims == (2, 5, 9, 9) and elapsed < 1.0)


def test_criterion_03_coefficient_dissipation_bijection():
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        c = a + a.T
        d = dissipation_from_kossakowski(c)
        back = kossakowski_from_dissipation(d)
        ok &= np.max(np.abs(back - c)) < 1e-14 * max(1.0, np.max(np.abs(c)))
        explicit = 2.0 * np.array([
            [c[1, 1] + c[2, 2], -c[0, 1], -c[0, 2]],
            [-c[0, 1], c[0, 0] + c[2, 2], -c[1, 2]],
            [-c[0, 2], -c[1, 2], c[0, 0] + c[1, 1]],
        ])
        ok &= np.max(np.abs(d - explicit)) < 1e-14 * max(1.0, np.max(np.abs(c)))
    report(3, "coefficient/dissipation bijection", ok)


def test_criterion_04_cone_inclusion():
    rng = np.random.default_rng(101)
    counterexamples = 0
    for i in range(100_000):
        a = rng.standard_normal((3, 3))
        c = a @ a.T if i % 2 else a + a.T
        if is_completely_positive(c, 1e-12) and not is_positive(c, 1e-12):
            counterexamples += 1
    report(4, "cone inclusion on 1e5 samples", counterexamples == 0)


def test_criterion_05_rank_drop_certificate_consistency():
    disagreements = []
    for name, kwargs, *_ in PATTERNS:
        v = build(kwargs)
        analysis = classify_subspace(v)
        verdict = rank_drop_certificate(v)
        gap = analysis.n_p > analysis.n_cp >= 1
        if (verdict != "none") != gap:
            disagreements.append(name)
    report(5, "rank-drop certificate consistency over the pattern library",
           len(PATTERNS) >= 10 and not disagreements)


def test_criterion_06_boundary_tangent_span_rank():
    v = ParamSubspace.from_free_entries(["c11", "c22", "c12", "c13", "c23"])
    analysis = classify_subspace(v)
    report(6, "tangent-slice PSD span has rank 3",
           v.n == 5 and analysis.n_cp == 3)


def test_criterion_07_polarization_contrast():
    v0 = np.array([0.5, 0.0, 0.0])
    ts = np.linspace(0.0, 10.0, 201)

    def contrast():
        ok = True
        # admissible completely positive, non-white: no polarization ever
        for model in (CorrelationModel("zero"),
                      CorrelationModel("exponential", w33=1.0, tau=0.5)):
            h, d = build_spin_generator(coefficients(model, b3=1.0), u=1.0)
            gen = -(h + d)
            ok &= all(abs(propagate(gen, v0, t)[2]) < 1e-10 for t in ts)

        # positive-only exponential model: polarization appears
        w13, tau, b3 = 0.2, 0.5, 1.0
        model = CorrelationModel("exponential", w11=1.0, w13=w13, w33=1.0, tau=tau)
        h, d = build_spin_generator(coefficients(model, b3=b3), u=1.0)
        gen = -(h + d)
        rho3 = np.array([propagate(gen, v0, t)[2] for t in ts])
        ok &= np.max(rho3) > 1e-4
        rate = sz_derivatives(gen, v0, 1)[0]
        ok &= abs(rate - 2 * w13 * tau / (1 + (2 * b3 * tau) ** 2)) < 1e-10
        return ok

    ok, elapsed = timed(contrast)
    report(7, "z-polarization contrast", ok and elapsed < 1.0)


def test_criterion_08_purity_monotonicity():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        d = dissipation_from_kossakowski(a @ a.T)
        h = rng.standard_normal(3)
        segs = [(rng.uniform(0.05, 0.8), float(u))
                for u in rng.integers(0, 2, rng.integers(1, 5))]
        w = rng.standard_normal(3)
        v0 = w * rng.uniform(0.0, 0.5) / np.linalg.norm(w)
        traj = evolve_schedule(h, d, ControlSchedule(segs), v0, dt=0.05)
        ok &= bool(np.all(np.diff(traj.purities) <= 1e-10))
    report(8, "purity monotonicity on random switched trajectories", ok)


def test_criterion_09_coefficient_integrals_against_quadrature():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(20):
        w11, w33 = rng.uniform(0.1, 2.0, 2)
        w13 = rng.uniform(-0.9, 0.9) * np.sqrt(w11 * w33)
        tau = rng.uniform(0.1, 2.0)
        b3 = rng.uniform(-2.0, 2.0)
        c = coefficients(CorrelationModel("exponential", w11=w11, w13=w13,
                                          w33=w33, tau=tau), b3)
        upper = 200.0 * tau

        def corr(w):
            return lambda s: w * np.exp(-s / tau)

        ref = [
            2 * quad(lambda s: corr(w11)(s) * np.cos(2 * b3 * s), 0, upper, limit=400)[0],
            quad(lambda s: corr(w11)(s) * np.sin(2 * b3 * s), 0, upper, limit=400)[0],
            quad(lambda s: corr(w13)(s) * (np.cos(2 * b3 * s) + 1), 0, upper, limit=400)[0],
            quad(lambda s: corr(w13)(s) * np.sin(2 * b3 * s), 0, upper, limit=400)[0],
            2 * quad(lambda s: corr(w33)(s), 0, upper, limit=400)[0],
            quad(lambda s: corr(w13)(s) * (np.cos(2 * b3 * s) - 1), 0, upper, limit=400)[0],
        ]
        got = [c.c11, c.c12, c.c13, c.c23, c.c33, c.omega2]
        ok &= np.max(np.abs(np.array(got) - np.array(ref))) < 1e-10
    report(9, "closed-form coefficients match adaptive quadrature", ok)


def test_criterion_10_monte_carlo_markovian_limit():
    start = time.perf_counter()
    model = CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2)
    rep = mc_validate(model, b3=1.0, u=1.0, v0=[0.5, 0.0, 0.0], dt=0.005,
                      t_final=5.0, n_samples=2000, seed=7)
    elapsed = time.perf_counter() - start
    report(10, "white-noise ensemble within 3 standard errors",
           rep.within_3se and elapsed < 60.0)


def test_criterion_11_positivity_violation_detected():
    c = np.diag([1.0, 1.0, -2.5])
    d = dissipation_from_kossakowski(c)
    assert np.linalg.eigvalsh(d)[0] < 0  # construction sanity
    traj = evolve_schedule([0.0, 0.0, 0.0], d, ControlSchedule([(2.0, 0.0)]),
                           [0.5, 0.0, 0.0], dt=0.05)
    norms = np.sqrt(traj.purities)
    report(11, "Bloch-ball exit detected and flagged",
           bool(np.max(norms) > 0.5 + 1e-6 and traj.exited_ball))
