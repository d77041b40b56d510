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
orthogonal to it and every admissible member lives on the face ker Y.  Each
pass returns the face it found, from the eigenpairs that decide it: M's for
a span {x M}, else those of the projection P of I onto the span, a central
point when definite, and of Y = I - P when PSD, as one is on a 2x2 face;
only a 3x3 pass where neither holds follows a log-det barrier to both.  At
most three passes decide.  Only zero is admissible iff some Y is definite,
and the depth of the unit-norm one found says how near that is to flipping.

K is computed by a finite recursion: the common zeros of the forms w^T B w
split, exactly to rounding, along singular members of their pencil
(Richter-Gebert, Perspectives on Projective Geometry, 2011, ch. 11).  The
basis returned for K is orthonormal, and isotropic only when K is a line.
"""

from dataclasses import dataclass, field

import numpy as np

from .generator import (dissipation_from_kossakowski, is_psd, kossakowski_from_dissipation,
                        pow2_scaled, require_symmetric, unit_rows, vec6_to_sym)

#: Feasibility tolerance: a point is admissible when the relevant minimum
#: eigenvalue is >= -FEAS_TOL times the matrix's Frobenius norm.  A face
#: counts as strictly feasible when its unit-norm central member has
#: lambda_min above FEAS_TOL.
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
    always refer to this basis as given.  ``span``, its Frobenius-orthonormal
    basis, is computed once here, so ``basis`` must not change afterwards.
    """

    basis: np.ndarray
    span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1:] != (3, 3):
            raise ValueError(f"basis must have shape (n, 3, 3), got {basis.shape}")
        if not 1 <= len(basis) <= 6:
            raise ValueError(f"basis size must be between 1 and 6, got {len(basis)}")
        self.basis = basis = require_symmetric(basis, "basis")
        # every later step normalizes each element, at any scale
        if not basis.reshape(-1, 9).any(axis=1).all():
            raise ValueError("basis contains a zero element")
        self.span = _orthonormal(basis)
        if len(self.span) != len(basis):
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
    """True iff the coefficient matrix itself is PSD: lambda_min(C) >= -tol |C|_F."""
    return is_psd(require_symmetric(c, "kossakowski matrix"), tol)


def is_positive(c: np.ndarray, tol: float = FEAS_TOL) -> bool:
    """True iff the dissipation matrix D(C) is PSD: lambda_min(D) >= -tol |D|_F."""
    c = pow2_scaled(require_symmetric(c, "kossakowski matrix"))  # D(c) cannot overflow
    return is_psd(dissipation_from_kossakowski(c), tol)


# ---------------------------------------------------------------------------
# facial reduction
# ---------------------------------------------------------------------------

#: Barrier weights, each centred roughly (squared Newton decrement below 1/16,
#: where full steps converge quadratically), the last fully (below 1e-12).  The
#: last sets how well a face is known: at 1e-6 planted faces are lost, at 1e-12
#: the Newton systems are too ill-conditioned to follow one (3a reads 2a).
_MU_PATH = np.array([1.0, 1e-4, 1e-8])

#: Eigenvalues of the barrier path's trace-one dual at or below this span the
#: face of its pass; no other dual is cut.  At the last barrier weight they are
#: about 1e-8 on the face and of order one off it: the cut is the geometric middle.
_DUAL_CUT = 1e-4

#: Unit-norm members whose part off the face has at most this norm count as
#: supported on the face, which the barrier path knows only to about 1e-8.
_SUPPORT_CUT = 1e-6

#: Frobenius-orthonormal basis of the symmetric 3x3 matrices, flattened.
_SYM_BASIS = np.stack([vec6_to_sym(row).reshape(9) for row in
                       np.diag([1.0, 1.0, 1.0] + [np.sqrt(0.5)] * 3)])


def _orthonormal(mats: np.ndarray) -> np.ndarray:
    """Frobenius-orthonormal basis of the span, each element normalized first."""
    _, sv, vt = np.linalg.svd(unit_rows(mats), full_matrices=False)
    return vt[: int(np.sum(sv > RANK_TOL * sv[0]))].reshape((-1,) + mats.shape[1:])


def _central_path(mats: np.ndarray):
    """Centre x and trace-one dual Y of max t s.t. sum_k x_k M_k >= t I, |x| <= 1, for
    3x3 members on which neither projection of I decides (see _projected and _face).

    Damped Newton steps follow the log-det barrier central path from
    (t, x) = (-1, 0), to a squared decrement below 1/16 at each weight mu of
    _MU_PATH and below 1e-12 at the last.  With Z = sum_k x_k M_k - t I,
    stationarity makes Y = mu Z^-1 trace-one and orthogonal to every M_k up
    to O(mu): the dual certificate of facial reduction.  The Newton system
    is solved through a QR factor of its square root, which keeps the small
    curvature of the ball term that the explicit Hessian loses.
    """
    m = len(mats)
    a = np.concatenate([-np.eye(3)[None], mats])  # Z = sum_i z_i a_i, z = (t, x)
    z = np.concatenate([[-1.0], np.zeros(m)])
    eye, newton = np.eye(m), np.zeros((9 + m, m + 1))  # root of the Newton matrix
    for mu in _MU_PATH:
        for _ in range(50):
            x = z[1:]
            s = 1.0 - x @ x
            w, vecs = np.linalg.eigh(np.einsum("k,kij->ij", z, a))
            root = vecs / np.sqrt(w)
            scaled = root.T @ a @ root  # Z^-1/2 a_i Z^-1/2
            grad = np.einsum("kaa->k", scaled)
            grad[0] += 1.0 / mu
            grad[1:] -= 2.0 * x / s
            newton[:9] = scaled.reshape(m + 1, -1).T
            c = 2.0 / (s * (1.0 + np.sqrt(1.0 + 2.0 * (x @ x) / s)))  # no cancellation
            newton[9:, 1:] = np.sqrt(2.0 / s) * (eye + c * x[:, None] * x)  # ball root
            rr = np.linalg.qr(newton, mode="r")
            step = np.linalg.solve(rr, np.linalg.solve(rr.T, grad))
            dec = float(grad @ step)  # squared Newton decrement
            z = z + (step / (1.0 + np.sqrt(dec)) if dec > 1.0 / 16.0 else step)
            if dec < (1e-12 if mu == _MU_PATH[-1] else 1.0 / 16.0):
                break
    y = np.linalg.inv(np.einsum("k,kij->ij", z, a))
    return z[1:], y / np.trace(y)


def _ray(member: np.ndarray, tol: float):
    """(x, face, dual) of one member M, exactly: if sigma M is PSD to depth -tol, x = sigma = +-1
    and the face is None past depth tol, else its eigenvectors above tol; else x = 0, no face,
    and the dual is (I + s M)^-1 at the root of d/ds prod(1 + s lambda_i) keeping it definite."""
    vals, vecs = np.linalg.eigh(member)
    sign = 1.0 if vals[0] + vals[-1] >= 0.0 else -1.0  # only the larger end's sign can be PSD
    cut, low = tol * np.linalg.norm(member), (sign * vals).min()
    if low >= -cut:
        return np.array([sign]), None if low > cut else vecs[:, sign * vals > cut], None
    e1, e2, e3 = np.append(np.poly(-vals)[1:], 0.0)[:3].tolist()  # floats: a far root is inf
    q = -(e2 + float(np.copysign(np.sqrt(e2 * e2 - 3.0 * e1 * e3), e2)))  # roots e1/q, q/3e3
    s = max([e1 / q] + ([q / (3.0 * e3)] if e3 else []), key=lambda r: min(1.0 + r * vals))
    y = (vecs / (1.0 + s * vals)) @ vecs.T
    return np.zeros(1), vecs[:, :0], y / np.trace(y)


def _projected(members: np.ndarray, tol: float):
    """(x, face, dual) of two or more orthonormal members, from the projections of I onto
    their span, P (coordinates: the traces), and off it, N = I - P.

    A P definite at ``tol`` meets the interior: x is its direction.  An N PSD to depth
    -tol is orthogonal to the span: x = 0, the face is its kernel at ``tol`` tr N, read
    off P's eigenvectors, and the dual N / tr N.  Else a 3x3 pass takes the barrier path:
    the face is its dual's kernel at _DUAL_CUT unless its centre is deeper than ``tol``.
    A 2x2 pass never does: Sym(2)'s PSD cone is {p I/sqrt(2) + q : |q| <= p}, q traceless,
    and tr P = |P|^2 gives |q|^2 = sqrt(2) p - p^2: p <= |q| forces p <= 1/sqrt(2), so
    |q| <= sqrt(2) - p, N PSD.
    """
    traces = np.einsum("kaa->k", members)
    projection = np.einsum("k,kab->ab", traces, members)
    vals, vecs = np.linalg.eigh(projection)
    if vals[0] > tol * np.linalg.norm(vals):
        return traces / np.linalg.norm(traces), None, None
    normal = 1.0 - vals  # N's eigenvalues: it shares P's eigenvectors
    if len(vals) == 3 and normal.min() < -tol * np.linalg.norm(normal):
        x, dual = _central_path(members)
        centre = np.einsum("k,kab->ab", x, members)
        if np.linalg.eigvalsh(centre)[0] > tol * np.linalg.norm(centre):
            return x, None, None
        vals, vecs = np.linalg.eigh(dual)
        return x, vecs[:, vals <= _DUAL_CUT], dual
    face = vecs[:, normal <= tol * normal.sum()]
    return np.zeros(len(members)), face, (np.eye(len(vals)) - projection) / normal.sum()


def _canonical(members: np.ndarray) -> np.ndarray:
    """Rotation taking orthonormal members to a basis fixed by their span alone.

    The basis is Gram-Schmidt of the orthogonal projector onto the span,
    column by column in the (c11, c22, c33, c12, c13, c23) order, skipping
    columns within _SUPPORT_CUT of the directions already taken.  Column j
    of the projector is the combination coords[:, j] of the members, so the
    process runs on those coordinates.  Rounding rotates the members of a
    degenerate span arbitrarily; it moves this basis only by rounding.
    """
    coords = members.reshape(len(members), 9) @ _SYM_BASIS.T
    rotation = np.zeros((0, len(members)))
    for col in coords.T:
        for _ in range(2):  # twice is enough for orthogonality
            col = col - rotation.T @ (rotation @ col)
        norm = np.linalg.norm(col)
        if norm > _SUPPORT_CUT:
            rotation = np.vstack([rotation, col / norm])
    return rotation


def _face(members: np.ndarray, tol: float):
    """Facial reduction of the span of orthonormal members against the PSD cone.

    Returns (rank, members, x_or_dual): the rank of the smallest face of the
    PSD cone holding every PSD member of the span, the canonical orthonormal
    basis of the span's members supported on that face (see _canonical), and
    the coordinates on that basis of its central point; at rank 0, no members
    and a definite dual, projected onto the complement of the span.  A pass,
    _ray's for one member and _projected's for more, meets the interior or
    returns the smaller face on which the next one runs.  Only 0 is admissible
    iff the complement holds a definite matrix (Gordan): the first pass's dual
    when it leaves no face, else the barrier path's, the first being singular.
    """
    span, u, first = members, np.eye(3), None
    while len(members) and u.shape[1]:
        reduced = np.einsum("ia,kij,jb->kab", u, members, u)
        x, face, dual = _ray(reduced[0], tol) if len(members) == 1 else _projected(reduced, tol)
        if face is None:
            rotation = _canonical(members)
            return u.shape[1], np.einsum("jk,kab->jab", rotation, members), rotation @ x
        first = dual if u.shape[1] == 3 and not face.shape[1] else None  # a first pass that ends it
        u = u @ face
        off = np.einsum("ij,kjl->kil", np.eye(3) - u @ u.T, members)
        _, sv, vt = np.linalg.svd(off.reshape(len(members), 9).T)
        members = np.einsum("jk,kab->jab", vt[sv <= _SUPPORT_CUT], members)
    first = _central_path(span)[1] if first is None else first
    return 0, members[:0], first - np.tensordot(np.tensordot(span, first, 2), span, 1)


def _analyze_cone(v: ParamSubspace, cone: str, tol: float):
    """Face rank, admissible span dimension, signed depth and witnesses."""
    members = v.span if cone == "CP" else _orthonormal(  # scaled: D cannot overflow
        dissipation_from_kossakowski(pow2_scaled(v.basis)))
    rank, members, x_or_dual = _face(members, tol)
    if rank == 0:  # minus the depth of the certificate
        return 0, 0, -float(np.linalg.eigvalsh(x_or_dual)[0] / np.linalg.norm(x_or_dual)), []
    centre = np.einsum("k,kij->ij", x_or_dual, members)
    centre /= np.linalg.norm(centre)
    # short steps along the face members stay inside the face: each has unit
    # norm, so it moves the face eigenvalues of the centre by at most the step
    u = np.linalg.eigh(centre)[1][:, 3 - rank:]
    step = 0.5 * np.linalg.eigvalsh(u.T @ centre @ u)[0]
    witnesses = np.concatenate([centre[None], centre + step * members])
    if cone == "P":
        witnesses = kossakowski_from_dissipation(witnesses)
    return rank, len(members), float(np.linalg.eigvalsh(centre)[0]), list(witnesses)


def classify_subspace(v: ParamSubspace, tol: float = FEAS_TOL) -> ConeAnalysis:
    """Classify a subspace into the six admissibility cases.

    For each cone, facial reduction finds the smallest face of the PSD cone
    holding the admissible members: rank 0 means only zero is admissible, rank
    3 that some admissible member lies in the cone interior, and rank 1 or 2
    that the admissible set is confined to the cone boundary.  n_p and n_cp are
    the dimensions of the subspace members supported on the face, which the
    admissible sets span.  A boundary face is reported as the boundary case and
    flagged as ambiguous.  ``extent_*`` is a signed depth: lambda_min of the
    unit-norm central admissible member, or, when only zero is admissible,
    minus lambda_min of the unit-norm first-pass dual, the definite matrix
    orthogonal to the subspace that certifies it.  Where P, the projection of
    I, decides (see _projected), the centre is P, a conservative depth fixed by
    the span, and a definite I - P is the dual.  The witnesses are the central
    admissible member and short steps from it along the canonical orthonormal
    basis of the face members, so they span the admissible set and do not
    depend on the choice of basis or its scale.  No verdict depends on the
    frame, scale or choice of basis.

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

    p_boundary, cp_boundary = 0 < rank_p < 3, 0 < rank_cp < 3
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

#: Directions, and linear quantities of them such as B w, count as nonzero
#: above this, and so do gaps between pencil roots, relative to max(1, |root|):
#: a multiple root's lie up to 5.3e-7 apart (bases of condition <= 100).
_DIRECTION_TOL = 1e-6

#: Rounding-level cut: a form, or its largest pair of eigenvalues, is singular
#: when |smaller| <= this * |larger|.  The zeros of {x^2 + y^2 - z^2,
#: (x - (1 - d) z)(x + 2 z)}, 2 sqrt(d) apart, read as two down to d = 1e-12
#: in 30 random frames; a cut of 1e-12 merges them at d = 1e-12 in 15 of the
#: frames, and one of _ISOTROPIC_TOL in some from d = 1e-8.
_SINGULAR_CUT = 1e-14


def _split(g: np.ndarray) -> list:
    """Subspaces whose union holds the zeros of g, in g's coordinates.

    The kernel of g is spanned by its eigenvectors past the two of largest
    magnitude.  If that pair is singular at _SINGULAR_CUT, its second
    direction joins the kernel; if indefinite, each of its null directions
    does, one piece each.  Every piece is searched again with every form.
    """
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(-np.abs(vals))
    vals, vecs = vals[order] / vals[order[0]], vecs[:, order]
    second, kernel = vals[1], vecs[:, 2:]
    if abs(second) <= _SINGULAR_CUT:
        return [vecs[:, 1:]]
    if second < 0.0:
        r = np.sqrt(-second)
        return [np.column_stack([(r * vecs[:, 0] + s * vecs[:, 1]) / np.hypot(r, 1.0), kernel])
                for s in (1.0, -1.0)]
    return [kernel] if kernel.shape[1] else []


def _singular_member(forms: np.ndarray):
    """A singular member of the span of the forms, or None for one nonsingular form.

    Either of the first two forms, when singular; otherwise the pencil member
    a + lambda b, b the better conditioned of the two, at the real root of
    det(a + lambda b) farthest from the other roots.  A simple root is known
    to full precision; each of a multiple one is off by about sqrt(eps), so
    it is taken as the mean of the roots within _DIRECTION_TOL of it.
    """
    vals = np.abs(np.linalg.eigvalsh(forms[:2]))
    ratio = vals.min(axis=1) / vals.max(axis=1)
    if ratio.min() <= _SINGULAR_CUT:
        return forms[ratio.argmin()]
    if len(forms) == 1:
        return None
    a, b = forms[:2] if ratio[1] >= ratio[0] else forms[1::-1]
    roots = -np.linalg.eigvals(np.linalg.solve(b, a))
    gaps = [np.min(np.abs(np.delete(roots, i) - root)) for i, root in enumerate(roots)]
    pick = max((i for i in range(3) if roots[i].imag == 0.0), key=lambda i: gaps[i])
    cluster = np.abs(roots - roots[pick]) <= _DIRECTION_TOL * max(1.0, abs(roots[pick]))
    return a + roots[cluster].mean().real * b


def _pieces(forms: np.ndarray, u: np.ndarray) -> list:
    """Orthonormal bases of subspaces of range(u) whose span is that of the common zeros in it."""
    restricted = np.einsum("ia,kij,jb->kab", u, forms, u)
    if np.linalg.norm(restricted, axis=(1, 2)).max() <= _ISOTROPIC_TOL:
        return [u]
    if u.shape[1] == 1:
        return []
    g = (np.linalg.svd(restricted.reshape(len(forms), 4))[2][0].reshape(2, 2)
         if u.shape[1] == 2 else _singular_member(forms))
    if g is None:  # one nonsingular form: its zeros are {0} or a cone spanning R^3
        vals = np.linalg.eigvalsh(forms[0])
        return [u] if vals[0] < 0.0 < vals[-1] else []
    return [piece for z in _split(g) for piece in _pieces(forms, u @ z)]


def isotropic_span(v: ParamSubspace) -> IsotropicSpan:
    """Span K of the directions w with w^T B w = 0 for every member B.

    The zeros of a singular member lie in at most two proper subspaces; each
    is searched again with every form, down to lines kept exactly when every
    form vanishes on them at _ISOTROPIC_TOL.  Nothing depends on the basis,
    scale or frame of the subspace.
    """
    pieces = _pieces(v.span, np.eye(3))
    left, sv, _ = np.linalg.svd(np.hstack([np.zeros((3, 0))] + pieces))
    k_dim = int(np.sum(sv > _DIRECTION_TOL))
    return IsotropicSpan(k_basis=left[:, :k_dim].T, k_dim=k_dim)


def rank_drop_certificate(v: ParamSubspace) -> str:
    """Rank-drop certificate from the common isotropic span K.

    Returns "condition1" when dim K = 1 and B w != 0 for some member B and
    the direction w spanning K, "condition2" when dim K = 2 and some member
    restricted to K is not a multiple of the identity, and "none" otherwise.
    A nonzero verdict certifies n_p > n_cp given some nonzero CP member, and
    nothing without: span{diag(1, -0.1, 0.5), E12 + E21} reads condition2, n_cp 0.
    """
    k = isotropic_span(v)
    if k.k_dim == 1 and np.abs(v.span @ k.k_basis[0]).max() > _DIRECTION_TOL:
        return "condition1"
    if k.k_dim == 2:
        f = k.k_basis @ v.span @ k.k_basis.T
        # the traceless part on K, largest over its orthonormal bases
        if np.hypot(0.5 * (f[:, 0, 0] - f[:, 1, 1]), f[:, 0, 1]).max() > _DIRECTION_TOL:
            return "condition2"
    return "none"
