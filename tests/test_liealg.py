import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinaccess import (InfeasibleParametersError, LieClosure, ParamSubspace,
                        accessibility_verdict, bracket, compare_accessibility,
                        dissipation_from_kossakowski, hamiltonian_matrix,
                        lie_closure, switching_generators, rank_drop_certificate)


def unit(i, j):
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    return m


E = {(i + 1, j + 1): unit(i, j) for i in range(3) for j in range(3)}


def span_contains(closure, mat, tol=1e-9):
    vec = mat.reshape(9)
    flat = closure.basis.reshape(closure.dim, 9)
    resid = vec - flat.T @ (flat @ vec)
    return np.linalg.norm(resid) <= tol * max(np.linalg.norm(vec), 1e-300)


def qubit_pattern(c11, c22, c12=0.0, c13=0.0, c23=0.0):
    return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, 0.0]])


def test_bracket_identities():
    x = np.arange(9.0).reshape(3, 3)
    assert np.allclose(bracket(x, x), 0)
    assert np.allclose(bracket(E[1, 2], E[2, 1]), E[1, 1] - E[2, 2])
    assert np.allclose(bracket(E[1, 2], E[2, 3]), E[1, 3])


def test_single_skew_generator_is_abelian():
    closure = lie_closure([E[1, 2] - E[2, 1]])
    assert closure.dim == 1
    assert not closure.is_transitive


def test_equal_rates_z_control_cp_closure():
    # equal transversal rates: the algebra is two-dimensional, spanned by the
    # rotation and the dissipation direction diag(1, 1, 2)
    d = dissipation_from_kossakowski(np.diag([1.0, 1.0, 0.0]))
    closure = lie_closure(switching_generators([0, 0, 1.3], d))
    assert closure.dim == 2
    assert span_contains(closure, E[2, 1] - E[1, 2])
    assert span_contains(closure, E[1, 1] + E[2, 2] + 2 * E[3, 3])
    assert not accessibility_verdict(closure)


def test_equal_rates_z_control_positive_closure_is_full():
    d = dissipation_from_kossakowski(qubit_pattern(1.0, 1.0, c13=0.3, c23=0.7))
    closure = lie_closure(switching_generators([0, 0, 1.3], d))
    assert closure.dim == 9
    assert closure.is_transitive


def test_unequal_rates_z_control_cp_closure():
    d = dissipation_from_kossakowski(np.diag([0.9, 0.4, 0.0]))
    closure = lie_closure(switching_generators([0, 0, 1.0], d))
    assert closure.dim == 4
    for mat in (E[1, 2], E[2, 1], E[1, 1] - E[2, 2], E[2, 2] + E[3, 3]):
        assert span_contains(closure, mat)
    assert not closure.is_transitive


def test_x_control_closures_coincide():
    h = [1.0, 0.0, 0.0]
    d_p = dissipation_from_kossakowski(qubit_pattern(0.9, 0.4, c23=0.7))
    d_cp = dissipation_from_kossakowski(np.diag([0.9, 0.4, 0.0]))
    dim_p = lie_closure(switching_generators(h, d_p)).dim
    dim_cp = lie_closure(switching_generators(h, d_cp)).dim
    assert dim_p == dim_cp == 4


def test_verdict_on_explicit_spans():
    full = lie_closure([E[i, j] for i in (1, 2, 3) for j in (1, 2, 3)])
    assert full.dim == 9 and full.is_transitive
    sl3 = lie_closure([E[1, 2], E[2, 1], E[2, 3], E[3, 2]])
    assert sl3.dim == 8
    assert accessibility_verdict(sl3)
    four = lie_closure([E[1, 2], E[2, 1], E[1, 1] - E[2, 2], E[2, 2] + E[3, 3]])
    assert four.dim == 4
    assert not accessibility_verdict(four)


def test_closure_basis_is_orthonormal_and_closed():
    d = dissipation_from_kossakowski(qubit_pattern(0.9, 0.4, c23=0.7))
    closure = lie_closure(switching_generators([0, 0, 1.0], d))
    flat = closure.basis.reshape(closure.dim, 9)
    assert np.allclose(flat @ flat.T, np.eye(closure.dim), atol=1e-10)
    for x in closure.basis:
        for y in closure.basis:
            b = bracket(x, y)
            if np.linalg.norm(b) > 1e-12:
                assert span_contains(closure, b, tol=1e-8)


def test_dimension_is_scale_invariant():
    rng = np.random.default_rng(12)
    d = dissipation_from_kossakowski(qubit_pattern(1.0, 1.0, c23=0.7))
    gens = switching_generators([0, 0, 1.0], d)
    ref = lie_closure(gens).dim
    for _ in range(10):
        a, b = rng.uniform(0.1, 10, 2) * rng.choice([-1, 1], 2)
        assert lie_closure([a * gens[0], b * gens[1]]).dim == ref


def test_dimension_monotone_in_generators():
    rng = np.random.default_rng(13)
    gens = [rng.standard_normal((3, 3))]
    prev = lie_closure(gens).dim
    for _ in range(4):
        gens.append(rng.standard_normal((3, 3)))
        cur = lie_closure(gens).dim
        assert cur >= prev
        assert cur <= 9
        prev = cur


def test_skew_generators_stay_in_rotations():
    rng = np.random.default_rng(14)
    for _ in range(20):
        gens = []
        for _ in range(rng.integers(1, 4)):
            a = rng.standard_normal((3, 3))
            gens.append(a - a.T)
        assert lie_closure(gens).dim <= 3


def test_switching_generators_are_d_and_hamiltonian():
    d = dissipation_from_kossakowski(np.diag([0.9, 0.4, 0.0]))
    gens = switching_generators([0.1, 0.2, 1.3], d)
    assert len(gens) == 2
    assert np.array_equal(gens[0], d)
    assert np.array_equal(gens[1], hamiltonian_matrix([0.1, 0.2, 1.3]))


# ---------------------------------------------------------------------------
# the closure depends on the algebra, not on frame or scales
# ---------------------------------------------------------------------------

_Z = [0.0, 0.0, 1.0]
_X = [1.0, 0.0, 0.0]

#: (C, h, dim) of the switched patterns of ``reproduce`` and criterion 01.
SWITCHED = [
    (qubit_pattern(1.0, 1.0, c13=0.3, c23=0.7), _Z, 9),
    (np.diag([1.0, 1.0, 0.0]), _Z, 2),
    (qubit_pattern(0.9, 0.4, c13=0.3, c23=0.7), _Z, 9),
    (np.diag([0.9, 0.4, 0.0]), _Z, 4),
    (qubit_pattern(0.9, 0.4, c23=0.7), _X, 4),
    (np.diag([0.9, 0.4, 0.0]), _X, 4),
]


def rotation_from(frame):
    """A proper rotation from any 3x3 matrix (orthogonal even when it is singular)."""
    q = np.linalg.qr(frame)[0]
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


def rotated_switched_closure(c, h, q, d_scale=1.0, h_scale=1.0):
    """Closure of the switched pair after C -> d_scale Q C Q^T and h -> h_scale Q h.

    For a proper rotation Q, Q Hmat(h) Q^T = Hmat(Q h), so both generators
    are conjugated by the same frame change.
    """
    d = d_scale * (q @ dissipation_from_kossakowski(c) @ q.T)
    return lie_closure(switching_generators(h_scale * (q @ np.asarray(h)), d))


_UNIT_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(index=st.integers(0, len(SWITCHED) - 1),
       frame=arrays(float, (3, 3), elements=_UNIT_ENTRIES),
       d_exp=st.floats(-6.0, 6.0), h_exp=st.floats(-6.0, 6.0))
@example(index=1, frame=np.array([[0.3, -0.8, 0.5], [0.9, 0.2, -0.4], [0.1, 0.6, 0.7]]),
         d_exp=6.0, h_exp=0.0)
def test_switched_dimension_survives_frame_and_scales(index, frame, d_exp, h_exp):
    c, h, dim = SWITCHED[index]
    closure = rotated_switched_closure(c, h, rotation_from(frame), 10.0 ** d_exp, 10.0 ** h_exp)
    assert closure.dim == dim
    assert closure.is_transitive == (dim == 9)


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_near_equal_rates_keep_dimension_four(delta):
    # unequal rates give the four-dimensional algebra however close they are,
    # down to the resolution of about eps / CLOSURE_TOL
    rng = np.random.default_rng(21)
    for _ in range(20):
        q = rotation_from(rng.standard_normal((3, 3)))
        closure = rotated_switched_closure(np.diag([1.0, 1.0 + delta, 0.0]), _Z, q)
        assert closure.dim == 4
        assert not closure.is_transitive


def gram_schmidt_closure_dim(generators, tol=1e-9, zero_bracket=1e-12):
    """Dimension from the breadth-first Gram-Schmidt closure lie_closure replaced.

    Kept as the reference for generic inputs at moderate scales, where it is
    reliable.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    scale = max(np.linalg.norm(g) for g in gens)
    basis = []

    def admit(mat, threshold):
        vec = mat.reshape(9)
        norm = np.linalg.norm(vec)
        if norm < threshold:
            return False
        res = vec.copy()
        for _ in range(2):
            for b in basis:
                res -= (b @ res) * b
        if np.linalg.norm(res) <= tol * norm:
            return False
        basis.append(res / np.linalg.norm(res))
        return True

    queue = []
    for g in gens:
        if admit(g, zero_bracket * scale):
            queue.append(len(basis) - 1)
    while queue and len(basis) < 9:
        x = basis[queue.pop(0)].reshape(3, 3)
        for j in range(len(basis)):
            if admit(bracket(x, basis[j].reshape(3, 3)), zero_bracket):
                queue.append(len(basis) - 1)
    return len(basis)


def structured_generators(rng, kind):
    """One random member of a structured family of 3x3 matrices."""
    a = rng.standard_normal((3, 3))
    if kind == "so3":
        return a - a.T
    if kind == "upper":
        return np.triu(a)
    if kind == "diagonal":
        return np.diag(np.diag(a))
    if kind == "block":
        a[2, :2] = a[:2, 2] = 0.0
        return a
    if kind == "sl2":
        return np.array([[a[0, 0], a[0, 1], 0.0], [a[1, 0], -a[0, 0], 0.0], [0.0, 0.0, 0.0]])
    if kind == "symmetric":
        return a + a.T
    return a


@pytest.mark.parametrize("kind", ["so3", "upper", "diagonal", "block", "sl2",
                                  "generic", "symmetric"])
def test_dimension_matches_gram_schmidt_reference(kind):
    # one scale per set: with separate scales per generator the reference
    # itself can admit rounding noise as new directions
    rng = np.random.default_rng(31)
    for _ in range(50):
        q = rotation_from(rng.standard_normal((3, 3)))
        scale = 10.0 ** rng.uniform(-3, 3)
        gens = [scale * (q @ structured_generators(rng, kind) @ q.T)
                for _ in range(rng.integers(1, 4))]
        assert lie_closure(gens).dim == gram_schmidt_closure_dim(gens)


def test_compare_accessibility_differs_for_z_control():
    v = ParamSubspace.from_free_entries(["c11", "c22", "c23"])
    report = compare_accessibility(v, [0, 0, 1.0],
                                   theta_p=[1.0, 1.0, 0.7],
                                   theta_cp=[1.0, 1.0, 0.0])
    assert (report.dim_p, report.dim_cp) == (9, 2)
    assert report.accessible_p and not report.accessible_cp
    assert report.differ


def test_compare_accessibility_same_for_x_control():
    v = ParamSubspace.from_free_entries(["c11", "c22", "c23"])
    report = compare_accessibility(v, [1.0, 0, 0],
                                   theta_p=[0.9, 0.4, 0.7],
                                   theta_cp=[0.9, 0.4, 0.0])
    assert report.dim_p == report.dim_cp == 4
    assert not report.differ


def test_compare_accessibility_without_control_is_abelian():
    v = ParamSubspace.from_vec6([[1, 1, 1, 0, 0, 0]])
    report = compare_accessibility(v, [0.0, 0.0, 0.0], [1.0], [1.0])
    assert report.dim_p == report.dim_cp == 1
    assert not report.differ


def test_infeasible_coordinates_rejected():
    v = ParamSubspace.from_free_entries(["c11", "c22", "c23"])
    with pytest.raises(InfeasibleParametersError):
        compare_accessibility(v, [0, 0, 1.0], [1.0, 1.0, 0.7], [1.0, 1.0, 0.7])
    with pytest.raises(InfeasibleParametersError):
        compare_accessibility(v, [0, 0, 1.0], [-1.0, -1.0, 0.0], [1.0, 1.0, 0.0])


def test_differing_verdict_implies_rank_drop_certificate():
    # subspaces where the two closures differ must carry a nonzero verdict
    v = ParamSubspace.from_free_entries(["c11", "c22", "c23"])
    report = compare_accessibility(v, [0, 0, 1.0], [1.0, 1.0, 0.7], [1.0, 1.0, 0.0])
    assert report.differ
    assert rank_drop_certificate(v) != "none"

    v13 = ParamSubspace.from_free_entries(["c11", "c33", "c12", "c13", "c23"])
    report = compare_accessibility(v13, [0, 0, 1.0],
                                   theta_p=[1.0, 1.0, 0.5, 0.3, 0.2],
                                   theta_cp=[1.0, 1.0, 0.0, 0.0, 0.0])
    assert report.differ
    assert rank_drop_certificate(v13) != "none"
