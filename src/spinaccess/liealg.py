"""Lie-bracket closure of generator sets and the accessibility verdict.

The controlled coherence-vector system dv/dt = -(u H + D) v is accessible
iff the matrix Lie algebra generated by its drift and control directions
acts transitively on the punctured Bloch ball, i.e. equals gl(3, R) or
sl(3, R).  The closure grows an SVD span, orthonormal under the trace
inner product <X, Y> = Tr(X^T Y), by the brackets of all pairs of its
basis elements until the span stops growing.
"""

from dataclasses import dataclass

import numpy as np

from .cones import ParamSubspace, is_completely_positive, is_positive
from .errors import InfeasibleParametersError
from .generator import dissipation_from_kossakowski, hamiltonian_matrix, unit_rows

#: Relative singular-value cut of the span of the normalized generators and
#: their brackets.
CLOSURE_TOL = 1e-9


@dataclass
class LieClosure:
    """Orthonormal basis of a generated matrix Lie algebra."""

    basis: np.ndarray  # (dim, 3, 3), orthonormal under Tr(X^T Y)
    dim: int
    is_transitive: bool


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x @ y - y @ x


def lie_closure(generators) -> LieClosure:
    """Close a set of 3x3 matrices under the commutator.

    Each nonzero generator is normalized (``generator.unit_rows``), and the
    basis is the SVD span of the generators: the right singular vectors
    whose singular values exceed ``CLOSURE_TOL`` times the largest.  The
    span is then replaced by the SVD span of itself plus the brackets of all
    pairs of its basis elements, until the dimension stops growing or
    reaches 9 (Elliott, Bilinear Control Systems, 2009, ch. 2).  The algebra
    depends only on the span of the generators, so neither the frame nor
    their scales, up to the largest double, change the result; two
    directions closer than about eps / ``CLOSURE_TOL`` are not resolved.

    Parameters
    ----------
    generators : iterable of np.ndarray
        At least one finite 3x3 matrix, not all zero.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("at least one generator is required")
    for g in gens:
        if g.shape != (3, 3):
            raise ValueError(f"generators must be 3x3, got shape {g.shape}")
    mats = np.stack(gens)
    if not np.isfinite(mats).all():
        raise ValueError("generators must be finite")
    rows = unit_rows(mats)
    if not len(rows):
        raise ValueError("all generators vanish")

    basis = _svd_span(rows)
    while len(basis) < 9:
        mats = basis.reshape(-1, 3, 3)
        i, j = np.triu_indices(len(mats), 1)
        grown = _svd_span(np.vstack([basis, bracket(mats[i], mats[j]).reshape(-1, 9)]))
        if len(grown) == len(basis):
            break
        basis = grown

    arr = basis.reshape(-1, 3, 3)
    closure = LieClosure(basis=arr, dim=len(arr), is_transitive=False)
    closure.is_transitive = accessibility_verdict(closure)
    return closure


def _svd_span(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning ``rows`` at singular values above CLOSURE_TOL relative."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[s > CLOSURE_TOL * s[0]]


def accessibility_verdict(closure: LieClosure) -> bool:
    """True iff the closure is gl(3, R), or sl(3, R) to traces below 1e-10."""
    if closure.dim == 9:
        return True
    if closure.dim == 8:
        traces = np.abs(np.trace(closure.basis, axis1=1, axis2=2))
        return bool(np.all(traces < 1e-10))
    return False


def switching_generators(h: np.ndarray, d: np.ndarray) -> list:
    """Generator pair {D, Hmat(h)} of the on/off switched system.

    The system switches between the generators D (control off) and
    Hmat(h) + D (control on).  span{D, Hmat(h) + D} = span{D, Hmat(h)}, so
    both pairs generate the same algebra; the sum is not used because it
    loses Hmat(h) to cancellation when |D| >> |Hmat(h)|.
    """
    return [np.asarray(d, dtype=float), hamiltonian_matrix(h)]


@dataclass
class AccessibilityReport:
    """Side-by-side accessibility of one subspace under the two cones."""

    dim_p: int
    dim_cp: int
    accessible_p: bool
    accessible_cp: bool
    closure_p: LieClosure
    closure_cp: LieClosure
    differ: bool


def compare_accessibility(v: ParamSubspace, h: np.ndarray, theta_p,
                          theta_cp) -> AccessibilityReport:
    """Accessibility verdicts for a positivity- and a CP-admissible member.

    ``theta_p`` must select a subspace member whose dissipation matrix is
    PSD, ``theta_cp`` one whose coefficient matrix is PSD; both closures use
    the switched generator pair of :func:`switching_generators`.

    Raises
    ------
    InfeasibleParametersError
        When a coordinate vector violates its requested cone.
    """
    c_p = v.matrix(theta_p)
    c_cp = v.matrix(theta_cp)
    if not is_positive(c_p):
        raise InfeasibleParametersError("theta_p does not satisfy positivity")
    if not is_completely_positive(c_cp):
        raise InfeasibleParametersError("theta_cp does not satisfy complete positivity")

    closure_p = lie_closure(switching_generators(h, dissipation_from_kossakowski(c_p)))
    closure_cp = lie_closure(switching_generators(h, dissipation_from_kossakowski(c_cp)))
    return AccessibilityReport(
        dim_p=closure_p.dim,
        dim_cp=closure_cp.dim,
        accessible_p=closure_p.is_transitive,
        accessible_cp=closure_cp.is_transitive,
        closure_p=closure_p,
        closure_cp=closure_cp,
        differ=closure_p.is_transitive != closure_cp.is_transitive,
    )
