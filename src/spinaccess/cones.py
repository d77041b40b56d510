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
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .generator import (dissipation_from_kossakowski, kossakowski_from_dissipation,
                        require_symmetric, sym_to_vec6, vec6_to_sym)

#: Feasibility tolerance: a point is admissible when the relevant minimum
#: eigenvalue is >= -FEAS_TOL.  A face counts as strictly feasible when its
#: unit-norm central member has lambda_min above FEAS_TOL.
FEAS_TOL = 1e-9

#: Relative singular-value threshold for span (rank) estimates.
RANK_TOL = 1e-7

_ENTRY_NAMES = {"c11": 0, "c22": 1, "c33": 2, "c12": 3, "c13": 4, "c23": 5}


@dataclass
class ParamSubspace:
    """Linear subspace of symmetric 3x3 matrices given by a basis.

    ``basis`` has shape (n, 3, 3) with 1 <= n <= 6 linearly independent
    symmetric elements.  Coordinates theta always refer to this basis as
    given; a Frobenius-normalized copy is kept for the numerical searches.
    """

    basis: np.ndarray
    normalized: np.ndarray = field(init=False, repr=False)

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
        norms = np.linalg.norm(basis.reshape(n, 9), axis=1)
        if np.any(norms < 1e-14):
            raise ValueError("basis contains a zero element")
        self.normalized = basis / norms[:, None, None]
        # independence: the Gram matrix of the 6-vector forms must have rank n
        gram = self._vec6(self.normalized) @ self._vec6(self.normalized).T
        if np.linalg.svd(gram, compute_uv=False)[-1] <= 1e-10:
            raise ValueError("basis elements are not linearly independent")

    @staticmethod
    def _vec6(mats):
        return np.stack([sym_to_vec6(m) for m in mats])

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
    """Orthonormal directions w with w^T B w = 0 for every basis element B."""

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
    """
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

def _isotropic_solve(forms: np.ndarray, w0: np.ndarray, deflate=None):
    """One least-squares descent of the stacked forms from w0."""

    def residuals(w):
        s = w @ w
        res = np.einsum("i,kij,j->k", w, forms, w) / s
        if deflate is not None and len(deflate):
            res = np.concatenate([res, (deflate @ w) / np.sqrt(s)])
        return res

    def jac(w):
        s = w @ w
        fw = np.einsum("kij,j->ki", forms, w)
        qw = np.einsum("i,kij,j->k", w, forms, w)
        rows = 2.0 * (fw * s - qw[:, None] * w[None, :]) / s**2
        if deflate is not None and len(deflate):
            pw = deflate @ w
            extra = (deflate * np.sqrt(s) - pw[:, None] * w[None, :] / np.sqrt(s)) / s
            rows = np.vstack([rows, extra])
        return rows

    with np.errstate(invalid="ignore", divide="ignore"):
        res = least_squares(residuals, w0, jac=jac, xtol=1e-14, ftol=1e-14,
                            gtol=1e-14)
    return res.x


def _isotropic_polish(forms: np.ndarray, w: np.ndarray, iters: int = 60):
    """Gauss-Newton refinement of w onto the common zero set of the forms.

    The least-squares cost is quartic in the off-set components, so descent
    methods stall around 1e-5; the Gauss-Newton step halves the distance per
    iteration and reaches machine precision.
    """
    w = w / np.linalg.norm(w)
    for _ in range(iters):
        resid = np.einsum("i,kij,j->k", w, forms, w)
        if np.max(np.abs(resid)) < 1e-17:
            break
        jac = 2.0 * np.einsum("kij,j->ki", forms, w)
        delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        w = w + delta
        nw = np.linalg.norm(w)
        if nw < 1e-8:
            return None
        w = w / nw
    return w


def _isotropic_hits(forms: np.ndarray, seed: int, starts: int, tol: float,
                    deflate: np.ndarray = None):
    """Unit directions with w^T B w = 0 for every form, by multistart search.

    ``deflate`` (rows of an orthonormal set) adds penalty residuals pushing
    the search outside the span already found.  Every candidate is re-polished
    against the bare forms, so near-misses collapse back onto the true
    isotropic set instead of surviving as spurious off-span directions, and
    is accepted only well below the nominal tolerance.
    """
    accept = tol * 1e-2
    rng = np.random.default_rng(seed)
    seeds = np.vstack([np.eye(3), rng.standard_normal((starts, 3))])
    hits = []
    for w0 in seeds:
        w = w0 / np.linalg.norm(w0)
        if np.max(np.abs(np.einsum("i,kij,j->k", w, forms, w))) >= accept:
            w = _isotropic_solve(forms, w, deflate)
            nw = np.linalg.norm(w)
            if nw < 1e-8:
                continue
            w = w / nw
        w = _isotropic_polish(forms, w)
        if w is None:
            continue
        if np.max(np.abs(np.einsum("i,kij,j->k", w, forms, w))) < accept:
            if w[np.argmax(np.abs(w))] < 0:
                w = -w
            hits.append(w)
    return hits


def _orthonormal_isotropic(forms: np.ndarray, target: int, seed: int,
                           starts: int, tol: float):
    """Mutually orthonormal isotropic directions, greedily deflated."""
    found = []
    while len(found) < target:
        deflate = np.asarray(found) if found else None
        sub = _isotropic_hits(forms, seed + 7 * len(found), starts, tol, deflate)
        pick = None
        for w in sub:
            if not found or np.max(np.abs(np.asarray(found) @ w)) < 1e-9:
                pick = w
                break
        if pick is None:
            break
        found.append(pick)
    return found


def isotropic_span(v: ParamSubspace, seed: int = 0, starts: int = 48,
                   tol: float = 1e-8) -> IsotropicSpan:
    """Span of the directions annihilating every quadratic form of the basis.

    Directions are found by multistart least-squares minimization of the
    stacked forms w^T B_k w on the unit sphere, with deflation passes pushed
    outside the span already found; the span dimension is the rank of the
    hit collection.  The returned basis is orthonormal, built from isotropic
    directions whenever an orthonormal isotropic set of full span dimension
    exists (it does for all entry-pattern subspaces).
    """
    forms = v.normalized
    hits = _isotropic_hits(forms, seed, starts, tol)
    span_basis = []
    for _ in range(3):
        if not hits:
            break
        stack = np.asarray(hits)
        sv = np.linalg.svd(stack, compute_uv=False)
        dim = int(np.sum(sv > 1e-6 * sv[0]))
        if len(span_basis) == dim == 3:
            break
        q = np.linalg.svd(stack, full_matrices=False)[2][:dim]
        span_basis = list(q)
        if dim == 3:
            break
        more = _isotropic_hits(forms, seed + 101, starts, tol,
                               deflate=np.asarray(span_basis))
        fresh = [w for w in more
                 if np.linalg.norm(w - np.asarray(span_basis).T
                                   @ (np.asarray(span_basis) @ w)) > 1e-3]
        if not fresh:
            break
        hits.extend(fresh)
    if not hits:
        return IsotropicSpan(k_basis=np.zeros((0, 3)), k_dim=0)
    k_dim = len(span_basis)
    ortho_iso = _orthonormal_isotropic(forms, k_dim, seed, starts, tol)
    if len(ortho_iso) == k_dim:
        k_basis = np.asarray(ortho_iso)
    else:
        k_basis = np.asarray(span_basis)
    return IsotropicSpan(k_basis=k_basis, k_dim=k_dim)


def rank_drop_certificate(v: ParamSubspace, draws: int = 32, seed: int = 0,
                          tol: float = 1e-8) -> str:
    """Rank-drop certificate from the common isotropic span K.

    Returns "condition1" when dim K = 1 and C(theta) K != 0 for a majority
    of generic coordinate draws, "condition2" when dim K = 2 and the form
    restricted to K has a nonzero off-diagonal element in some orthonormal
    basis of K (equivalently, is not a multiple of the identity on K), and
    "none" otherwise.  A nonzero verdict certifies n_p > n_cp != 0.
    """
    span = isotropic_span(v, seed=seed)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-1.0, 1.0, size=(draws, v.n))
    if span.k_dim == 1:
        w = span.k_basis[0]
        hits = 0
        for theta in thetas:
            if np.max(np.abs(v.matrix(theta) @ w)) > tol:
                hits += 1
        return "condition1" if hits > draws // 2 else "none"
    if span.k_dim == 2:
        q = span.k_basis.T  # (3, 2)
        hits = 0
        for theta in thetas:
            f = q.T @ v.matrix(theta) @ q
            # largest off-diagonal over all rotations of the orthonormal pair
            if np.hypot(0.5 * (f[0, 0] - f[1, 1]), f[0, 1]) > tol:
                hits += 1
        return "condition2" if hits > draws // 2 else "none"
    return "none"
