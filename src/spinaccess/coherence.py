"""Conversions between 2x2 density matrices and coherence (Bloch) vectors.

The coherence vector of a qubit state rho is v_k = Tr(rho sigma_k)/2 for
k = 1, 2, 3 in the Pauli ordering (sigma_x, sigma_y, sigma_z), shared by
every module of this package.  Physical states fill the closed ball of
radius 1/2; the constant component Tr(rho)/2 = 1/2 is implicit and never
stored.
"""

import numpy as np

from .errors import InvalidStateError, UnphysicalStateError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Pauli basis in the fixed (x, y, z) ordering, shape (3, 2, 2).
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: Default tolerance for Bloch-ball membership.  Strictly zero would reject
#: states whose norm sits on the boundary up to propagation rounding.
PHYSICAL_TOL = 1e-9

_HERMITIAN_TOL = 1e-12


def density_to_coherence(rho: np.ndarray) -> np.ndarray:
    """Map a 2x2 density matrix to its 3-component coherence vector.

    Parameters
    ----------
    rho : np.ndarray
        Complex 2x2 matrix; must be Hermitian with unit trace.

    Returns
    -------
    np.ndarray
        Real 3-vector with components Tr(rho sigma_k)/2.

    Raises
    ------
    InvalidStateError
        If ``rho`` is not 2x2, not Hermitian, or Tr(rho) != 1 beyond
        tolerance 1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidStateError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _HERMITIAN_TOL:
        raise InvalidStateError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > _HERMITIAN_TOL:
        raise InvalidStateError(f"density matrix trace is {np.trace(rho)}, expected 1")
    return np.real(np.einsum("kij,ji->k", PAULI, rho)) / 2.0


def coherence_to_density(v: np.ndarray) -> np.ndarray:
    """Reconstruct the density matrix I/2 + sum_k v_k sigma_k.

    Raises
    ------
    UnphysicalStateError
        If ``v`` lies outside the Bloch ball of radius 1/2 beyond
        PHYSICAL_TOL.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise UnphysicalStateError(f"expected a 3-vector, got shape {v.shape}")
    if not is_physical(v):
        raise UnphysicalStateError(f"|v| = {np.linalg.norm(v)} exceeds 1/2")
    return np.eye(2, dtype=complex) / 2.0 + np.einsum("k,kij->ij", v, PAULI)


def is_physical(v: np.ndarray, tol: float = PHYSICAL_TOL):
    """True iff ``v`` lies in the Bloch ball: |v|^2 <= 1/4 + tol.

    ``v`` is one vector, giving a bool, or a stack of them, (..., 3), giving
    one flag per vector.  |v|^2 is ``purity``, the same for a vector alone
    and in a stack; a NaN vector is outside.
    """
    inside = purity(v) <= 0.25 + tol
    return bool(inside) if np.ndim(v) == 1 else inside


def purity(v: np.ndarray):
    """Squared norm |v|^2; equals 1/4 exactly for pure states.

    ``v`` is one vector, giving a float, or a stack of them, (..., 3),
    giving one value per vector.  Each is (x*x + y*y) + z*z, rounded alike
    whatever the shape and the BLAS kernel.
    """
    v = np.asarray(v, dtype=float)
    squares = (v * v).sum(axis=-1)
    return float(squares) if v.ndim == 1 else squares
