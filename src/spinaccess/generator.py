"""Lindblad generators in the coherence-vector picture.

A two-level dissipative generator is parametrized by a real symmetric 3x3
coefficient matrix C (inverse-time units) and a Hamiltonian vector h with
h_k = Tr(H sigma_k)/2.  On the coherence vector the equation of motion is

    dv/dt = L v,     L = -(u * Hmat(h) + D),

where D = 2 (I Tr C - C) is the symmetric dissipation matrix and Hmat(h)
the skew-symmetric Hamiltonian matrix.  The factor-of-2 conventions in
``dissipation_from_kossakowski`` and ``hamiltonian_matrix`` are load-bearing:
every rate and frequency downstream inherits them.

Symmetric matrices serialize as the 6-vector (c11, c22, c33, c12, c13, c23);
all modules use this ordering.
"""

import numpy as np

_SYM_TOL = 1e-12


def require_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a float array, raising ValueError if not symmetric 3x3."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {m.shape}")
    if np.max(np.abs(m - m.T)) > _SYM_TOL * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (m + m.T)


def sym_to_vec6(m: np.ndarray) -> np.ndarray:
    """Serialize a symmetric 3x3 matrix as (c11, c22, c33, c12, c13, c23)."""
    m = np.asarray(m, dtype=float)
    return np.array([m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]])


def vec6_to_sym(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sym_to_vec6`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected a 6-vector, got shape {v.shape}")
    c11, c22, c33, c12, c13, c23 = v
    return np.array([
        [c11, c12, c13],
        [c12, c22, c23],
        [c13, c23, c33],
    ])


def dissipation_from_kossakowski(c: np.ndarray) -> np.ndarray:
    """Dissipation matrix D = 2 (I Tr C - C) of a coefficient matrix C.

    Entrywise, D11 = 2(c22 + c33), D12 = -2 c12, and cyclic permutations, so
    no diagonal entry suffers the cancellation of Tr C - c11.
    """
    c = require_symmetric(c, "kossakowski matrix")
    diag = np.diagonal(c)
    d = -2.0 * c
    np.fill_diagonal(d, 2.0 * (diag[[1, 0, 0]] + diag[[2, 2, 1]]))
    return d


def kossakowski_from_dissipation(d: np.ndarray) -> np.ndarray:
    """Invert :func:`dissipation_from_kossakowski`: C = (Tr D / 4) I - D / 2."""
    d = require_symmetric(d, "dissipation matrix")
    return (np.trace(d) / 4.0) * np.eye(3) - d / 2.0


def hamiltonian_matrix(h: np.ndarray) -> np.ndarray:
    """Skew-symmetric coherence-vector action of the Hamiltonian vector h.

    Hmat(h) = 2 [[0, h3, -h2], [-h3, 0, h1], [h2, -h1, 0]], so that the
    purely coherent motion dv/dt = -Hmat(h) v is precession about h at
    angular rate 2|h|.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {h.shape}")
    h1, h2, h3 = h
    return 2.0 * np.array([
        [0.0, h3, -h2],
        [-h3, 0.0, h1],
        [h2, -h1, 0.0],
    ])


def lindblad_superop(h: np.ndarray, d: np.ndarray, u: float = 1.0) -> np.ndarray:
    """Coherence-vector generator L = -(u * Hmat(h) + D) for control value u."""
    d = require_symmetric(d, "dissipation matrix")
    return -(u * hamiltonian_matrix(h) + d)

