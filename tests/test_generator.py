import warnings

import numpy as np
import pytest

from spinaccess import (dissipation_from_kossakowski, hamiltonian_matrix,
                        kossakowski_from_dissipation, lindblad_superop,
                        sym_to_vec6, vec6_to_sym)
from spinaccess.generator import require_symmetric


def explicit_dissipation(c):
    """Entrywise reference for D, written out independently of the library."""
    c11, c22, c33 = c[0, 0], c[1, 1], c[2, 2]
    c12, c13, c23 = c[0, 1], c[0, 2], c[1, 2]
    return 2.0 * np.array([
        [c22 + c33, -c12, -c13],
        [-c12, c11 + c33, -c23],
        [-c13, -c23, c11 + c22],
    ])


def random_symmetric(rng):
    a = rng.standard_normal((3, 3))
    return a + a.T


def test_identity_maps_to_4i():
    assert np.allclose(dissipation_from_kossakowski(np.eye(3)), 4 * np.eye(3))


def test_single_rate_dissipation():
    c11 = 1.7
    d = dissipation_from_kossakowski(np.diag([c11, 0, 0]))
    assert np.allclose(d, np.diag([0.0, 2 * c11, 2 * c11]))


def test_spin_field_pattern_matches_explicit_block():
    # coefficient matrix with vanishing (2,2) entry, all other entries free
    c = np.array([[0.9, 0.2, -0.4], [0.2, 0.0, 0.3], [-0.4, 0.3, 1.1]])
    d = dissipation_from_kossakowski(c)
    c11, c33, c12, c13, c23 = 0.9, 1.1, 0.2, -0.4, 0.3
    expected = 2.0 * np.array([
        [c33, -c12, -c13],
        [-c12, c11 + c33, -c23],
        [-c13, -c23, c11],
    ])
    assert np.allclose(d, expected, atol=1e-15)


def test_diagonal_has_no_cancellation():
    # the trace form 2 (Tr C - c11) read D11 = 0 for the first matrix and
    # was 9e-5 off, relative, for the second
    assert dissipation_from_kossakowski(np.diag([1e16, 1.0, 1.0]))[0, 0] == 4.0
    d11 = dissipation_from_kossakowski(np.diag([1.0, 1e-12, 1e-12]))[0, 0]
    assert abs(d11 - 4e-12) <= np.spacing(4e-12)


def test_inverse_examples():
    assert np.allclose(kossakowski_from_dissipation(4 * np.eye(3)), np.eye(3))
    assert np.allclose(kossakowski_from_dissipation(np.zeros((3, 3))), np.zeros((3, 3)))
    assert np.allclose(kossakowski_from_dissipation(np.diag([0.0, 2, 2])),
                       np.diag([1.0, 0, 0]))


def test_round_trip_exact():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        c = random_symmetric(rng)
        back = kossakowski_from_dissipation(dissipation_from_kossakowski(c))
        assert np.max(np.abs(back - c)) < 1e-14 * max(1.0, np.max(np.abs(c)))


def test_trace_scaling():
    rng = np.random.default_rng(40)
    for _ in range(100):
        c = random_symmetric(rng)
        assert np.isclose(np.trace(dissipation_from_kossakowski(c)),
                          4 * np.trace(c), atol=1e-12)


def test_entrywise_against_reference():
    rng = np.random.default_rng(4)
    for _ in range(200):
        c = random_symmetric(rng)
        assert np.allclose(dissipation_from_kossakowski(c), explicit_dissipation(c),
                           atol=1e-14)


def test_basis_independence():
    # D(O^T C O) = O^T D(C) O for a common orthogonal change of frame
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = random_symmetric(rng)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        lhs = dissipation_from_kossakowski(q.T @ c @ q)
        rhs = q.T @ dissipation_from_kossakowski(c) @ q
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_psd_is_preserved():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        c = a @ a.T
        d = dissipation_from_kossakowski(c)
        assert np.linalg.eigvalsh(d)[0] >= -1e-12


def test_hamiltonian_matrix_forms():
    assert np.allclose(hamiltonian_matrix([0, 0, 0]), np.zeros((3, 3)))
    h3 = 0.8
    assert np.allclose(hamiltonian_matrix([0, 0, h3]),
                       2 * np.array([[0, h3, 0], [-h3, 0, 0], [0, 0, 0]]))
    h1 = -1.3
    assert np.allclose(hamiltonian_matrix([h1, 0, 0]),
                       2 * np.array([[0, 0, 0], [0, 0, h1], [0, -h1, 0]]))


def test_hamiltonian_matrix_is_skew():
    rng = np.random.default_rng(7)
    for _ in range(50):
        hm = hamiltonian_matrix(rng.standard_normal(3))
        assert np.allclose(hm, -hm.T)


def test_superop_control_off_and_unitary_limit():
    d = dissipation_from_kossakowski(np.diag([0.3, 0.4, 0.5]))
    assert np.allclose(lindblad_superop([1, 2, 3], d, u=0.0), -d)
    l = lindblad_superop([1, 2, 3], np.zeros((3, 3)), u=1.0)
    assert np.allclose(l, -l.T)


def test_superop_parts_example():
    c11, c22, h3 = 0.6, 0.9, 1.4
    d = dissipation_from_kossakowski(np.diag([c11, c22, 0.0]))
    l = lindblad_superop([0, 0, h3], d, u=1.0)
    sym = 0.5 * (l + l.T)
    skew = l - sym
    assert np.allclose(sym, -2 * np.diag([c22, c11, c11 + c22]))
    assert np.isclose(skew[0, 1], -2 * h3)
    assert np.isclose(skew[1, 0], 2 * h3)


def test_split_recovers_parts_exactly():
    rng = np.random.default_rng(8)
    for _ in range(100):
        h = rng.standard_normal(3)
        d = random_symmetric(rng)
        d = 0.5 * (d + d.T)
        u = rng.standard_normal()
        l = lindblad_superop(h, d, u)
        sym = 0.5 * (l + l.T)
        skew = l - sym
        assert np.allclose(sym, -d, atol=1e-14)
        assert np.allclose(skew, -u * hamiltonian_matrix(h), atol=1e-13)


def test_vec6_serialization_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = random_symmetric(rng)
        assert np.allclose(vec6_to_sym(sym_to_vec6(c)), c)
    assert np.allclose(sym_to_vec6(vec6_to_sym([1, 2, 3, 4, 5, 6])),
                       [1, 2, 3, 4, 5, 6])


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        dissipation_from_kossakowski(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


def test_symmetry_test_is_scale_free():
    # a fully asymmetric s E12 is refused at every scale, not symmetrized
    # below unit scale; a matrix symmetric to rounding is accepted
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    c = random_symmetric(np.random.default_rng(3))
    for scale in (1e-15, 1e-12, 1e-6, 1.0, 1e6):
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(scale * e12)
        near = scale * c
        near[0, 1] *= 1.0 + 2e-16
        assert np.array_equal(require_symmetric(near), 0.5 * (near + near.T))


def test_bijection_refuses_or_avoids_overflow():
    # D of a C near the largest double overflows and is refused, with no
    # warning; C of a finite D is finite, and maps back to it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overflowing = 1e308 * np.diag([1.0, 0.0, 1.0])
        for c in (overflowing, np.stack([np.eye(3), overflowing, np.eye(3)])):
            with pytest.raises(ValueError, match="^dissipation matrix overflows$"):
                dissipation_from_kossakowski(c)
        for d in (1.7e308 * np.eye(3), np.diag([-1.7e308, 1.7e308, 1.7e308]),
                  np.full((3, 3), 1.7e308)):
            back = dissipation_from_kossakowski(kossakowski_from_dissipation(d))
            assert np.allclose(back, d, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    c = np.eye(3)
    c[1, 2] = c[2, 1] = bad
    with pytest.raises(ValueError, match="C has non-finite entries"):
        require_symmetric(c, "C")


def test_shapes_rejected():
    for m in (np.eye(2), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="C must be 3x3"):
            require_symmetric(m, "C")
    for v in ([1, 2, 3, 4, 5], np.eye(6)):
        with pytest.raises(ValueError, match="6-vector"):
            vec6_to_sym(v)
    for h in ([0, 1], np.eye(3)):
        with pytest.raises(ValueError, match="3-vector"):
            hamiltonian_matrix(h)


_CONVENTIONS = [(require_symmetric, "matrix"),
                (dissipation_from_kossakowski, "kossakowski matrix"),
                (kossakowski_from_dissipation, "dissipation matrix")]


def test_stacked_conventions_equal_single_calls_bitwise():
    # a (4, 5, 3, 3) stack at element scales 1e-300..1e300, each matrix
    # symmetric only to rounding, maps matrix by matrix as single calls do
    rng = np.random.default_rng(33)
    a = rng.standard_normal((4, 5, 3, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, (4, 5, 1, 1))
    stack = a + np.swapaxes(a, -2, -1)
    stack[..., 0, 1] *= 1.0 + 2e-16
    for convention, _ in _CONVENTIONS:
        mapped = convention(stack)
        assert mapped.shape == stack.shape
        for idx in np.ndindex(stack.shape[:2]):
            assert mapped[idx].tobytes() == convention(stack[idx]).tobytes(), idx


@pytest.mark.parametrize("convention,name", _CONVENTIONS, ids=[c[1] for c in _CONVENTIONS])
def test_stack_with_one_bad_matrix_raises_the_single_matrix_message(convention, name):
    # the symmetry test is relative to each matrix, so an asymmetric small
    # matrix is refused beside a large symmetric one
    stack = np.stack([1e6 * np.eye(3)] * 4)
    asymmetric, non_finite = stack.copy(), stack.copy()
    asymmetric[2] = 1e-12 * np.eye(3)
    asymmetric[2, 0, 1] = 2e-12
    non_finite[1, 1, 2] = non_finite[1, 2, 1] = np.nan
    for bad, k, message in ((asymmetric, 2, "is not symmetric"),
                            (non_finite, 1, "has non-finite entries")):
        for mats in (bad[k], bad):
            with pytest.raises(ValueError) as refused:
                convention(mats)
            assert str(refused.value) == f"{name} {message}"
