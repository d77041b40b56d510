import numpy as np
import pytest

from spinaccess import (InvalidStateError, UnphysicalStateError,
                        coherence_to_density, density_to_coherence,
                        is_physical, purity)

UP_X = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
UP_Z = np.diag([1.0, 0.0]).astype(complex)


def test_maximally_mixed_maps_to_center():
    assert np.allclose(density_to_coherence(np.eye(2) / 2), [0, 0, 0], atol=1e-14)


def test_x_polarized_state():
    assert np.allclose(density_to_coherence(UP_X), [0.5, 0, 0], atol=1e-14)


def test_z_polarized_state():
    assert np.allclose(density_to_coherence(UP_Z), [0, 0, 0.5], atol=1e-14)


def test_non_hermitian_rejected():
    rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(InvalidStateError):
        density_to_coherence(rho)


def test_wrong_trace_rejected():
    with pytest.raises(InvalidStateError):
        density_to_coherence(np.eye(2, dtype=complex))


def test_wrong_shapes_rejected():
    with pytest.raises(InvalidStateError, match="2x2"):
        density_to_coherence(np.eye(3, dtype=complex) / 3)
    for v in ([0.1, 0.2], np.zeros((2, 3))):
        with pytest.raises(UnphysicalStateError, match="3-vector"):
            coherence_to_density(v)


def test_center_reconstructs_identity():
    assert np.allclose(coherence_to_density([0, 0, 0]), np.eye(2) / 2, atol=1e-15)


def test_reconstruction_matches_hand_expansion():
    # I/2 + sigma_x / 2 and I/2 + sigma_z / 2 expanded by hand
    assert np.allclose(coherence_to_density([0.5, 0, 0]), UP_X, atol=1e-15)
    assert np.allclose(coherence_to_density([0, 0, 0.5]), UP_Z, atol=1e-15)


def test_outside_ball_rejected():
    with pytest.raises(UnphysicalStateError):
        coherence_to_density([0.4, 0.4, 0.0])


def test_is_physical_examples():
    assert is_physical(np.zeros(3), tol=0.0)
    assert is_physical([0.5, 0, 0], tol=1e-12)
    assert not is_physical([0.4, 0.4, 0.0], tol=1e-12)  # 0.32 > 0.25


def test_round_trip_on_ball():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        w = rng.standard_normal(3)
        w *= rng.uniform(0, 0.5) / np.linalg.norm(w)
        back = density_to_coherence(coherence_to_density(w))
        assert np.max(np.abs(back - w)) < 1e-13


def test_conversion_is_linear_on_mixtures():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v1 = rng.uniform(-0.28, 0.28, 3)
        v2 = rng.uniform(-0.28, 0.28, 3)
        a = rng.uniform()
        rho1 = coherence_to_density(v1)
        rho2 = coherence_to_density(v2)
        mixed = density_to_coherence(a * rho1 + (1 - a) * rho2)
        assert np.allclose(mixed, a * v1 + (1 - a) * v2, atol=1e-14)


def test_pure_states_sit_on_sphere():
    rng = np.random.default_rng(2)
    for _ in range(200):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        v = density_to_coherence(np.outer(psi, psi.conj()))
        assert abs(np.linalg.norm(v) - 0.5) < 1e-12
        assert abs(purity(v) - 0.25) < 1e-12


def test_purity_rounds_alike_for_a_vector_and_a_stack():
    # (x*x + y*y) + z*z whatever the shape: the stack's values equal each
    # vector's and the plain sum in Python floats
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((4, 50, 3)) * rng.uniform(0.0, 0.6, (4, 50, 1))
    values = purity(stack)
    assert values.shape == (4, 50)
    for v, p in zip(stack.reshape(-1, 3), values.ravel()):
        x, y, z = v.tolist()
        assert type(purity(v)) is float
        assert purity(v) == p == (x * x + y * y) + z * z
    assert np.array_equal(purity(stack[:, 0]), values[:, 0])
