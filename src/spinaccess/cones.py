"""Positivity and complete-positivity cone analysis of parameter subspaces.

A dissipative family is a linear subspace V of real symmetric 3x3
coefficient matrices.  Complete positivity restricts a member C to the
cone C >= 0, plain positivity to D(C) = 2(I Tr C - C) >= 0; the first cone
sits inside the second.  This module decides, for a given subspace, how the
two restrictions compare: whether nonzero admissible members exist at all,
whether they are confined to the cone boundaries, and the dimensions n_p,
n_cp of the spans of the admissible sets.  It also computes the span K of
directions on which the quadratic form w -> w^T C w vanishes identically
over the subspace, and the rank-drop certificate built from K.

Each cone is the PSD cone intersected with one linear subspace (V for
complete positivity, D(V) for positivity), so the classification is
facial reduction (Borwein and Wolkowicz 1981; Permenter and Parrilo 2018):
either the subspace holds a definite matrix, or a nonzero PSD matrix Y is
orthogonal to it and every admissible member lives on the face ker Y.  A
log-det barrier, which is concave and has one maximizer, finds the central
point and Y together; in 3x3 at most three reductions reach the answer.

K is computed without search: the common zeros of the forms w^T B w split
along singular members of their pencil (Richter-Gebert, Perspectives on
Projective Geometry, 2011, ch. 11).  The basis returned for K is
orthonormal, and isotropic itself only when K is a line.
"""

from dataclasses import dataclass

import numpy as np

from .generator import (dissipation_from_kossakowski, kossakowski_from_dissipation,
                        require_symmetric, vec6_to_sym)

#: Feasibility tolerance: a point is admissible when the relevant minimum
#: eigenvalue is >= -FEAS_TOL.  A face counts as strictly feasible when its
#: unit-norm central member has lambda_min above FEAS_TOL.
FEAS_TOL = 1e-9

#: Accepted range of the feasibility tolerance, ends included.  Over the 18
#: library patterns, in random frames and at scales 1e-6..1e6, the depth of
#: a face's central member reads at most 3e-16 on boundary faces and at
#: least 0.235 on interior ones, so every verdict holds across the range.  A
#: negative value admits indefinite members, and a large one rejects every
#: face.
FEAS_TOL_RANGE = (1e-12, 1e-6)

#: Relative singular-value threshold for span (rank) estimates.
RANK_TOL = 1e-7

_ENTRY_NAMES = {"c11": 0, "c22": 1, "c33": 2, "c12": 3, "c13": 4, "c23": 5}


@dataclass
class ParamSubspace:
    """Linear subspace of symmetric 3x3 matrices given by a basis.

    ``basis`` has shape (n, 3, 3) with 1 <= n <= 6 symmetric elements,
    linearly independent at ``RANK_TOL`` once normalized.  Coordinates theta
    always refer to this basis as given.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1:] != (3, 3):
            raise ValueError(f"basis must have shape (n, 3, 3), got {basis.shape}")
        n = basis.shape[0]
        if not 1 <= n <= 6:
            raise ValueError(f"basis size must be between 1 and 6, got {n}")
        for k in range(n):
            basis[k] = require_symmetric(basis[k], f"basis element {k}")
        self.basis = basis
        if np.any(np.linalg.norm(basis.reshape(n, 9), axis=1) < 1e-14):
            raise ValueError("basis contains a zero element")
        # the same rank the cone analysis and the isotropic span use
        if len(_orthonormal(basis)) != n:
            raise ValueError("basis elements are not linearly independent")

    @classmethod
    def from_vec6(cls, rows) -> "ParamSubspace":
        """Build from rows in the (c11, c22, c33, c12, c13, c23) serialization."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 6:
            raise ValueError(f"expected shape (n, 6), got {rows.shape}")
        return cls(np.stack([vec6_to_sym(r) for r in rows]))

    @classmethod
    def from_free_entries(cls, names) -> "ParamSubspace":
        """Subspace where the named entries of C vary freely, e.g. ("c11", "c13")."""
        rows = []
        for name in names:
            if name not in _ENTRY_NAMES:
                raise ValueError(f"unknown entry name {name!r}")
            row = np.zeros(6)
            row[_ENTRY_NAMES[name]] = 1.0
            rows.append(row)
        return cls.from_vec6(rows)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def matrix(self, theta) -> np.ndarray:
        """The subspace member with coordinates theta in the given basis."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates, got shape {theta.shape}")
        return np.einsum("k,kij->ij", theta, self.basis)


@dataclass
class ConeAnalysis:
    """Outcome of classifying a subspace against the two positivity cones."""

    case_label: str
    n: int
    n_p: int
    n_cp: int
    extent_p: float
    extent_cp: float
    witnesses_p: list
    witnesses_cp: list
    ambiguous: bool


@dataclass
class IsotropicSpan:
    """Span K of the directions w with w^T B w = 0 for every member B.

    ``k_basis`` is an orthonormal basis of K, isotropic only when k_dim = 1.
    """

    k_basis: np.ndarray  # (k_dim, 3)
    k_dim: int


def is_completely_positive(c: np.ndarray, tol: float = FEAS_TOL) -> bool:
    """True iff the coefficient matrix itself is PSD: lambda_min(C) >= -tol."""
    c = require_symmetric(c, "kossakowski matrix")
    return bool(np.linalg.eigvalsh(c)[0] >= -tol)


def is_positive(c: np.ndarray, tol: float = FEAS_TOL) -> bool:
    """True iff the dissipation matrix D(C) is PSD: lambda_min(D) >= -tol."""
    d = dissipation_from_kossakowski(c)
    return bool(np.linalg.eigvalsh(d)[0] >= -tol)


# ---------------------------------------------------------------------------
# facial reduction
# ---------------------------------------------------------------------------

#: Barrier weights along the central path, 1 down to 1e-8.  Smaller weights
#: make the Newton systems too ill-conditioned to follow a boundary face.
_MU_PATH = 10.0 ** -np.arange(9)

#: Eigenvalues of the trace-one dual at or below this span its kernel.  At
#: the last barrier weight they are about 1e-8 on the face and of order one
#: off it; the cut sits at the geometric middle.
_DUAL_CUT = 1e-4

#: Unit-norm members whose part off the face has at most this norm count as
#: supported on the face.  The face itself is known only to about 1e-8.
_SUPPORT_CUT = 1e-6

#: Frobenius-orthonormal basis of the symmetric 3x3 matrices, flattened.
_SYM_BASIS = np.stack([vec6_to_sym(row).reshape(9) for row in
                       np.diag([1.0, 1.0, 1.0] + [np.sqrt(0.5)] * 3)])


def _orthonormal(mats: np.ndarray) -> np.ndarray:
    """Frobenius-orthonormal basis of the span, each element normalized first."""
    flat = mats.reshape(len(mats), -1)
    flat = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    _, sv, vt = np.linalg.svd(flat, full_matrices=False)
    return vt[: int(np.sum(sv > RANK_TOL * sv[0]))].reshape((-1,) + mats.shape[1:])


def _central_path(mats: np.ndarray):
    """Centre x and trace-one dual Y of max t s.t. sum_k x_k M_k >= t I, |x| <= 1.

    Follows the log-det barrier central path from (t, x) = (-1, 0) by damped
    Newton steps through the barrier weights mu of _MU_PATH.
    With Z = sum_k x_k M_k - t I, stationarity in t makes Y = mu Z^-1 a
    trace-one PSD matrix, and stationarity in x makes it orthogonal to every
    M_k up to O(mu): the dual certificate of facial reduction.  The Newton
    system is solved through a QR factor of its square root, which keeps
    the small curvature of the ball term that the explicit Hessian loses.
    """
    m, r = mats.shape[:2]
    a = np.concatenate([-np.eye(r)[None], mats])  # Z = sum_i z_i a_i, z = (t, x)
    z = np.zeros(m + 1)
    z[0] = -1.0
    for mu in _MU_PATH:
        for _ in range(50):
            x = z[1:]
            s = 1.0 - x @ x
            w, vecs = np.linalg.eigh(np.einsum("k,kij->ij", z, a))
            root = vecs / np.sqrt(w)
            scaled = np.einsum("ia,kij,jb->kab", root, a, root)  # Z^-1/2 a_i Z^-1/2
            grad = np.trace(scaled, axis1=1, axis2=2)
            grad[0] += 1.0 / mu
            grad[1:] -= 2.0 * x / s
            ball = np.linalg.cholesky(2.0 * np.eye(m) / s + 4.0 * np.outer(x, x) / s**2)
            rr = np.linalg.qr(np.vstack([scaled.reshape(m + 1, -1).T,
                                         np.hstack([np.zeros((m, 1)), ball.T])]),
                              mode="r")
            step = np.linalg.solve(rr, np.linalg.solve(rr.T, grad))
            dec = float(grad @ step)  # squared Newton decrement
            z = z + (step / (1.0 + np.sqrt(dec)) if dec > 1.0 / 16.0 else step)
            if dec < 1e-12:
                break
    y = np.linalg.inv(np.einsum("k,kij->ij", z, a))
    return z[1:], y / np.trace(y)


def _face(members: np.ndarray, tol: float):
    """Facial reduction of the span of orthonormal members against the PSD cone.

    Returns (rank, members, x): the rank of the smallest face of the PSD
    cone holding every PSD member of the span, an orthonormal basis of the
    span's members supported on that face, and the coordinates on that basis
    of its central point.  While the central point of the current face is
    not strictly feasible (depth at most ``tol``), the face shrinks to the
    kernel of the dual; each pass drops at least one dimension.
    """
    u = np.eye(3)
    while len(members) and u.shape[1]:
        reduced = np.einsum("ia,kij,jb->kab", u, members, u)
        x, dual = _central_path(reduced)
        centre = np.einsum("k,kab->ab", x, reduced)
        if np.linalg.eigvalsh(centre)[0] > tol * np.linalg.norm(centre):
            return u.shape[1], members, x
        vals, vecs = np.linalg.eigh(dual)
        u = u @ vecs[:, vals <= _DUAL_CUT]
        off = np.einsum("ij,kjl->kil", np.eye(3) - u @ u.T, members)
        _, sv, vt = np.linalg.svd(off.reshape(len(members), 9).T)
        members = np.einsum("jk,kab->jab", vt[sv <= _SUPPORT_CUT], members)
    return 0, members[:0], None


def _unit_member(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The member with coordinates x, scaled to unit Frobenius norm."""
    m = np.einsum("k,kij->ij", x, mats)
    return m / np.linalg.norm(m)


def _analyze_cone(v: ParamSubspace, cone: str, tol: float):
    """Face rank, admissible span dimension, signed depth and witnesses."""
    images = v.basis if cone == "CP" else np.stack(
        [dissipation_from_kossakowski(b) for b in v.basis])
    span = _orthonormal(images)
    rank, members, x = _face(span, tol)
    if rank == 0:
        # the span meets the cone only at zero iff its orthogonal complement
        # within the symmetric matrices holds a definite matrix; report how deep
        coords = span.reshape(len(span), 9) @ _SYM_BASIS.T
        comp = (np.linalg.svd(coords)[2][len(span):] @ _SYM_BASIS).reshape(-1, 3, 3)
        centre = _unit_member(comp, _central_path(comp)[0])
        return 0, 0, -float(np.linalg.eigvalsh(centre)[0]), []
    centre = _unit_member(members, x)
    # short steps along the face members stay inside the face: each has unit
    # norm, so it moves the face eigenvalues of the centre by at most the step
    u = np.linalg.eigh(centre)[1][:, 3 - rank:]
    step = 0.5 * np.linalg.eigvalsh(u.T @ centre @ u)[0]
    witnesses = [centre] + [centre + step * m for m in members]
    if cone == "P":
        witnesses = [kossakowski_from_dissipation(w) for w in witnesses]
    return rank, len(members), float(np.linalg.eigvalsh(centre)[0]), witnesses


def classify_subspace(v: ParamSubspace, tol: float = FEAS_TOL) -> ConeAnalysis:
    """Classify a subspace into the six admissibility cases.

    For each cone, facial reduction finds the smallest face of the PSD cone
    holding the admissible members: rank 0 means only zero is admissible,
    rank 3 that some admissible member lies in the cone interior, and rank 1
    or 2 that the admissible set is confined to the cone boundary.  n_p and
    n_cp are the dimensions of the subspace members supported on the face,
    which the admissible sets span.  A boundary face is reported as the
    boundary case and flagged as ambiguous.  ``extent_*`` is a signed depth:
    lambda_min of the unit-norm central admissible member, or, when only
    zero is admissible, minus that of the central member of the orthogonal
    complement.  The witnesses are that central member and short steps from
    it along an orthonormal basis of the face members, so they span the
    admissible set.  Nothing depends on the frame, scale or choice of basis.

    Raises
    ------
    ValueError
        When ``tol`` lies outside ``FEAS_TOL_RANGE``.
    """
    lo, hi = FEAS_TOL_RANGE
    if not lo <= tol <= hi:
        raise ValueError(f"tol must lie in [{lo:g}, {hi:g}], got {tol!r}")
    rank_p, n_p, extent_p, witnesses_p = _analyze_cone(v, "P", tol)
    rank_cp, n_cp, extent_cp, witnesses_cp = _analyze_cone(v, "CP", tol)

    p_boundary = 0 < rank_p < 3
    cp_boundary = 0 < rank_cp < 3
    ambiguous = p_boundary or cp_boundary

    if rank_p == 0:
        label = "1"
        n_cp, witnesses_cp = 0, []
    elif rank_cp == 0:
        label = "2a" if p_boundary else "2b"
    elif p_boundary and cp_boundary:
        label = "3a"
    elif cp_boundary:
        label = "3b"
    else:
        label = "3c"

    return ConeAnalysis(
        case_label=label,
        n=v.n,
        n_p=n_p,
        n_cp=n_cp,
        extent_p=extent_p,
        extent_cp=extent_cp,
        witnesses_p=witnesses_p,
        witnesses_cp=witnesses_cp,
        ambiguous=ambiguous,
    )


# ---------------------------------------------------------------------------
# common isotropic directions and the rank-drop certificate
# ---------------------------------------------------------------------------

#: A unit-norm form vanishes on a subspace when its restriction is this small.
_ISOTROPIC_TOL = 1e-8

#: Directions, and linear quantities of them such as B w, are known to about
#: sqrt(eps) at a tangency; above this they count as nonzero.
_DIRECTION_TOL = 1e-6

#: Gauss-Newton starts only from directions with at most this residual.
_NEAR_HIT = 1e-3

#: A form is singular when |smallest eigenvalue| <= this * |largest|.
_SINGULAR_CUT = 1e-12


def _polish(forms: np.ndarray, w: np.ndarray):
    """Refine a unit direction onto the common zeros of the forms, or None.

    Gauss-Newton steps are taken orthogonal to w, from near-hits only, and
    the best iterate is kept: at a tangency convergence is only linear, and
    where every form has w in its kernel the Jacobian vanishes.
    """
    best, best_res = None, np.inf
    for _ in range(40):
        res = np.einsum("i,kij,j->k", w, forms, w)
        if np.abs(res).max() < best_res:
            best, best_res = w, np.abs(res).max()
        if not 1e-16 < best_res <= _NEAR_HIT:
            break
        jac = 2.0 * np.einsum("kij,j->ki", forms, w)
        jac -= np.outer(jac @ w, w)
        w = w - np.linalg.lstsq(jac, res, rcond=None)[0]
        w /= np.linalg.norm(w)
    return best if best_res <= _ISOTROPIC_TOL else None


def _split(g: np.ndarray) -> list:
    """Subspaces whose union holds the zeros of g, in g's coordinates.

    The kernel of g is spanned by its eigenvectors past the two of largest
    magnitude.  If that pair is indefinite, each of its null directions
    joins the kernel; if it is nearly singular, its second direction does.
    Erring large is safe: every piece is searched again with every form.
    """
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order] / vals[order[0]], vecs[:, order]
    second, kernel = vals[1], vecs[:, 2:]
    if second < 0.0:
        r = np.sqrt(-second)
        return [np.column_stack([(r * vecs[:, 0] + s * vecs[:, 1]) / np.hypot(r, 1.0), kernel])
                for s in (1.0, -1.0)]
    if second <= _ISOTROPIC_TOL:
        return [vecs[:, 1:]]
    return [kernel] if kernel.shape[1] else []


def _singular_member(forms: np.ndarray):
    """A singular member of the span of the forms, or None for one nonsingular form.

    Either of the first two forms, when singular; otherwise the pencil member
    g1 + lambda g2 at the real root of det(g1 + lambda g2) farthest from the
    other roots, which is the one known to full precision.
    """
    first = forms[:2]
    vals = np.abs(np.linalg.eigvalsh(first))
    singular = vals.min(axis=1) <= _SINGULAR_CUT * vals.max(axis=1)
    if singular.any():
        return first[np.argmax(singular)]
    if len(forms) == 1:
        return None
    roots = -np.linalg.eigvals(np.linalg.solve(forms[1], forms[0]))
    gaps = [np.min(np.abs(np.delete(roots, i) - root)) for i, root in enumerate(roots)]
    pick = max((i for i in range(3) if roots[i].imag == 0.0), key=lambda i: gaps[i])
    return forms[0] + roots[pick].real * forms[1]


def _pieces(forms: np.ndarray, u: np.ndarray) -> list:
    """Orthonormal bases of subspaces of range(u) whose span is that of the common zeros in it."""
    if u.shape[1] == 1:
        w = _polish(forms, u[:, 0])
        return [] if w is None else [w[:, None]]
    restricted = np.einsum("ia,kij,jb->kab", u, forms, u)
    if np.linalg.norm(restricted, axis=(1, 2)).max() <= _ISOTROPIC_TOL:
        return [u]
    g = (np.linalg.svd(restricted.reshape(len(forms), 4))[2][0].reshape(2, 2)
         if u.shape[1] == 2 else _singular_member(forms))
    if g is None:  # one nonsingular form: its zeros are {0} or a cone spanning R^3
        vals = np.linalg.eigvalsh(forms[0])
        return [u] if vals[0] < 0.0 < vals[-1] else []
    return [piece for z in _split(g) for piece in _pieces(forms, u @ z)]


def isotropic_span(v: ParamSubspace) -> IsotropicSpan:
    """Span K of the directions w with w^T B w = 0 for every member B.

    The zeros of a singular member lie in at most two proper subspaces; each
    is searched again with every form, down to lines refined by Gauss-Newton.
    Nothing depends on the basis, scale or frame of the subspace.
    """
    pieces = _pieces(_orthonormal(v.basis), np.eye(3))
    left, sv, _ = np.linalg.svd(np.hstack([np.zeros((3, 0))] + pieces))
    k_dim = int(np.sum(sv > _DIRECTION_TOL))
    return IsotropicSpan(k_basis=left[:, :k_dim].T, k_dim=k_dim)


def rank_drop_certificate(v: ParamSubspace) -> str:
    """Rank-drop certificate from the common isotropic span K.

    Returns "condition1" when dim K = 1 and B w != 0 for some member B and
    the direction w spanning K, "condition2" when dim K = 2 and some member
    restricted to K is not a multiple of the identity, and "none" otherwise.
    A nonzero verdict certifies n_p > n_cp != 0.
    """
    span, forms = isotropic_span(v), _orthonormal(v.basis)
    if span.k_dim == 1 and np.abs(forms @ span.k_basis[0]).max() > _DIRECTION_TOL:
        return "condition1"
    if span.k_dim == 2:
        f = span.k_basis @ forms @ span.k_basis.T
        # the traceless part on K, largest over its orthonormal bases
        if np.hypot(0.5 * (f[:, 0, 0] - f[:, 1, 1]), f[:, 0, 1]).max() > _DIRECTION_TOL:
            return "condition2"
    return "none"
