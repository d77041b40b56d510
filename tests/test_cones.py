import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinaccess import (ParamSubspace, classify_subspace,
                        dissipation_from_kossakowski, is_completely_positive,
                        is_positive, isotropic_span, kossakowski_from_dissipation,
                        rank_drop_certificate, sym_to_vec6, vec6_to_sym)
from spinaccess import cones

from pattern_library import PATTERNS, build


def test_subspace_validation():
    with pytest.raises(ValueError):
        ParamSubspace.from_vec6([])
    with pytest.raises(ValueError):  # dependent rows
        ParamSubspace.from_vec6([[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError):  # more than six directions cannot be independent
        ParamSubspace.from_vec6(np.vstack([np.eye(6), np.ones((1, 6))]))


def test_subspace_rejects_malformed_input():
    with pytest.raises(ValueError, match="shape"):
        ParamSubspace(np.eye(3))
    with pytest.raises(ValueError, match="zero element"):
        ParamSubspace(np.stack([np.eye(3), np.zeros((3, 3))]))
    with pytest.raises(ValueError, match="'c21'"):
        ParamSubspace.from_free_entries(["c11", "c21"])
    with pytest.raises(ValueError, match="non-finite"):
        ParamSubspace.from_vec6([[1, 0, 0, 0, 0, 0], [0, np.nan, 0, 0, 0, 0]])
    v = ParamSubspace.from_free_entries(["c11", "c13"])
    for theta in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="coordinates"):
            v.matrix(theta)


def test_span_is_orthonormalized_once(monkeypatch):
    # the constructor's span serves the CP cone, the isotropic span and the
    # certificate; only the P cone orthonormalizes again, its D images
    calls = []
    monkeypatch.setattr(cones, "_orthonormal", lambda mats, solve=cones._orthonormal:
                        calls.append(mats.shape) or solve(mats))
    for _, kwargs, *_ in PATTERNS:
        basis = build(kwargs).basis * 1e3
        calls.clear()
        v = ParamSubspace(basis)
        assert len(calls) == 1
        classify_subspace(v)
        isotropic_span(v)
        rank_drop_certificate(v)
        assert len(calls) == 2


def test_near_dependent_basis_keeps_verdicts():
    # the basis rank is decided where the cones and the span decide it, so a
    # basis the analysis resolves is accepted and one it cannot is refused
    e11, e22 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])

    def summary(basis):
        v = ParamSubspace(np.stack(basis))
        a = classify_subspace(v)
        return (a.case_label, a.n_p, a.n_cp, isotropic_span(v).k_dim,
                rank_drop_certificate(v))

    assert summary([e11, e11 + 1e-6 * e22]) == summary([e11, e22])
    for basis in ([e11, e11 + 1e-8 * e22], [e11, -3.0 * e11], [e11, e22, e11 - 2.0 * e22]):
        with pytest.raises(ValueError, match="not linearly independent"):
            ParamSubspace(np.stack(basis))


def test_cp_membership_examples():
    assert is_completely_positive(np.eye(3), 1e-9)
    assert not is_completely_positive(np.diag([1.0, 1.0, -0.1]), 1e-9)
    # zero (2,2) entry with nonzero coupling: block [[1, .5], [.5, 0]] has
    # negative determinant, so one eigenvalue is negative
    c = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert not is_completely_positive(c, 1e-9)


def test_positivity_membership_examples():
    assert is_positive(np.eye(3), 1e-9)
    c = np.array([[1.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert is_positive(c, 1e-9)
    assert not is_positive(-np.eye(3), 1e-9)


def test_only_an_exact_zero_element_is_degenerate():
    # every later step normalizes each element, so span{s E11, s E22} is
    # the same subspace at any scale, also where the squared norm of an
    # element under- or overflows, or, near the largest double, its sum with
    # another entry
    basis = ParamSubspace.from_free_entries(["c11", "c22"]).basis
    for scale in (1.0, 1e-10, 1e-14, 1e-15, 1e-100, 1e-170, 1e-300, 1e160, 1e300,
                  1e308, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ParamSubspace(scale * basis)
            analysis = classify_subspace(v)
            summary = (analysis.case_label, analysis.n_p, analysis.n_cp,
                       isotropic_span(v).k_dim, rank_drop_certificate(v))
        assert summary == ("3b", 2, 2, 1, "none"), scale


def test_cone_membership_is_scale_free():
    # lambda_min is compared with the matrix norm: the indefinite
    # diag(1, -1e-3, 0), with lambda_min(C) and lambda_min(D) both -1e-3
    # relative to the norm, is refused at every scale, and the PSD members
    # of the examples above are accepted at every scale, up to the largest
    # double, where D_ii = 2(c_jj + c_kk) overflows unless C is scaled first
    indefinite = np.diag([1.0, -1e-3, 0.0])
    for scale in (1e-12, 1e-7, 1.0, 1e7, 1e308, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_completely_positive(scale * indefinite)
            assert not is_positive(scale * indefinite)
            assert is_completely_positive(scale * np.eye(3))
            assert is_positive(scale * np.eye(3))
            assert is_positive(scale * np.array([[1.0, 0.1, 0.0], [0.1, 0.0, 0.0],
                                                 [0.0, 0.0, 1.0]]))
    assert is_completely_positive(np.zeros((3, 3)))
    assert is_positive(np.zeros((3, 3)))


def test_cp_implies_positive():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        c = a + a.T
        if is_completely_positive(c, 1e-9):
            assert is_positive(c, 1e-9)


def test_extent_of_identity_ray():
    # the extent is lambda_min of the unit-Frobenius-norm member: I / sqrt(3)
    analysis = classify_subspace(ParamSubspace.from_vec6([[1, 1, 1, 0, 0, 0]]))
    assert abs(analysis.extent_cp - 1.0 / np.sqrt(3.0)) < 1e-9
    assert any(np.allclose(w / w[0, 0], np.eye(3), atol=1e-8)
               for w in analysis.witnesses_cp)


def test_extent_of_indefinite_ray():
    # the dual certifying that only zero is admissible is I / 3, orthogonal
    # to diag(1, -1, 0): minus lambda_min of I / sqrt(3); a third eigenvalue
    # of 1e-200 moves the other root of the dual's equation out to about -1e200
    for third in (0.0, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analysis = classify_subspace(ParamSubspace.from_vec6([[1, -1, third, 0, 0, 0]]))
        assert analysis.extent_cp < -1e-6
        assert abs(analysis.extent_cp + 1.0 / np.sqrt(3.0)) < 1e-9
        assert analysis.witnesses_cp == []


def test_thin_psd_ray_is_a_boundary_face():
    # span{Q diag(1, eps, 0) Q^T} is a PSD ray on a rank-2 face.  The barrier
    # path's dual read about 1e-8 / eps on the eps direction at its last
    # weight, above _DUAL_CUT, so the face lost that direction, the member
    # fell off it, and the ray read 2b with n_cp 0 from eps = 3e-6 to 1e-4
    rng = np.random.default_rng(17)
    frames = [np.eye(3)] + [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(10)]
    for eps in (1e-4, 3e-5, 1e-5, 3e-6):
        for q in frames:
            c = q @ np.diag([1.0, eps, 0.0]) @ q.T
            analysis = classify_subspace(ParamSubspace(c[None]))
            assert (analysis.case_label, analysis.n_p, analysis.n_cp) == ("3b", 1, 1), eps
            assert (analysis.n_cp == 1) == is_completely_positive(c), eps
            assert is_completely_positive(analysis.witnesses_cp[0]), eps


@pytest.mark.xfail(strict=True, reason="the first facial-reduction pass has two or three "
                   "members and the barrier path's dual misses the rank-1 face")
@pytest.mark.parametrize("rows", [
    [[1, 1e-5, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]],  # span{diag(1, 1e-5, 0), E13 + E31}
    [[1, 1, -1, 0, 0, 0], [1, 0, 1, 0, -1, 0]],  # span{diag(1, 1, -1), (e1 - e3)(e1 - e3)^T}
    [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]],  # span{E11, E12+E21, E22+E13+E31}
], ids=["thin diagonal and coupling", "triple pencil root", "three members"])
def test_thin_faces_behind_a_two_step_reduction_are_found(rows):
    # each span's only PSD members form one ray, a diag(1, 1e-5, 0),
    # a (e1 - e3)(e1 - e3)^T or a E11 with a >= 0, so CP is confined to a
    # rank-1 or rank-2 face: 3b with n_cp 1
    analysis = classify_subspace(ParamSubspace.from_vec6(rows))
    assert (analysis.case_label, analysis.n_cp) == ("3b", 1)


@pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6])
def test_slightly_indefinite_ray_admits_nothing(eps):
    # span{diag(1, -eps, 0)}: neither the member nor its negative is positive
    # or completely positive, so only zero is admissible, case 1, in every
    # frame: an indefinite ray leaves no face, however small its part off e1
    c = np.diag([1.0, -eps, 0.0])
    for sign in (1.0, -1.0):
        assert not is_positive(sign * c) and not is_completely_positive(sign * c)
    rng = np.random.default_rng(49)
    frames = [np.eye(3)] + [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(10)]
    for q in frames:
        analysis = classify_subspace(ParamSubspace((q @ c @ q.T)[None]))
        assert (analysis.case_label, analysis.n_p, analysis.n_cp) == ("1", 0, 0)


def test_one_member_spans_admit_what_the_psd_tests_admit():
    # a span {x M} meets a cone beyond 0 iff M or -M lies in it, so n_p and
    # n_cp are the PSD tests of +-M, also where an eigenvalue of M or of D(M)
    # sits just inside or outside the cone, at any scale and in any frame
    rng = np.random.default_rng(23)
    for eps in (0.0, 1e-10, -1e-10, 1e-8, -1e-8, 1e-6, -1e-6, 1e-5, -1e-5):
        for _ in range(30):
            d1, d2 = rng.uniform(0.5, 2.0), rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.1, 1.0)
            s = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            c = s * q @ np.diag([d1, d2, eps]) @ q.T
            analysis = classify_subspace(ParamSubspace(c[None]))
            expected = (int(is_positive(c) or is_positive(-c)),
                        int(is_completely_positive(c) or is_completely_positive(-c)))
            assert (analysis.n_p, analysis.n_cp) == expected, (eps, d1, d2, s)


def test_extent_positive_for_spin_field_pattern():
    v = ParamSubspace.from_free_entries(["c11", "c33", "c12", "c13", "c23"])
    assert classify_subspace(v).extent_p > 1e-6


@pytest.mark.parametrize("name,kwargs,case,n_p,n_cp,k_dim,verdict", PATTERNS,
                         ids=[p[0] for p in PATTERNS])
def test_pattern_library(name, kwargs, case, n_p, n_cp, k_dim, verdict):
    v = build(kwargs)
    analysis = classify_subspace(v)
    assert analysis.case_label == case
    assert analysis.n_p == n_p
    assert analysis.n_cp == n_cp
    assert analysis.n == v.n
    assert analysis.n_cp <= analysis.n_p <= analysis.n
    span = isotropic_span(v)
    assert span.k_dim == k_dim
    assert rank_drop_certificate(v) == verdict
    # witnesses honour their cones
    for w in analysis.witnesses_p[:10]:
        assert is_positive(w, 1e-8)
    for w in analysis.witnesses_cp[:10]:
        assert is_completely_positive(w, 1e-8)


@pytest.mark.parametrize("tol", [-1.0, 0.3, 0.6])
def test_classify_rejects_tolerance_outside_range(tol):
    # at -1 this subspace read 3c (it is 3b); at 0.3 and 0.6 library patterns
    # got wrong labels or a LinAlgError
    v = ParamSubspace.from_vec6([[1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
    with pytest.raises(ValueError, match="tol must lie in"):
        classify_subspace(v, tol=tol)


def test_case_table_bounds():
    for name, kwargs, case, n_p, n_cp, _, _ in PATTERNS:
        if case == "1":
            assert n_p == n_cp == 0
        elif case == "2a":
            assert n_p <= 3 and n_cp == 0
        elif case == "2b":
            assert n_cp == 0
        elif case == "3a":
            assert n_cp == 1 and n_p <= 2
        elif case == "3b":
            assert n_cp <= 3


def test_isotropic_basis_annihilates_forms():
    v = build({"entries": ["c11", "c33", "c12", "c13", "c23"]})
    span = isotropic_span(v)
    assert span.k_dim == 1
    w = span.k_basis[0]
    assert np.allclose(np.abs(w), [0, 1, 0], atol=1e-8)
    for b in v.basis:
        assert abs(w @ b @ w) < 1e-8


def test_isotropic_plane_for_single_entry():
    span = isotropic_span(ParamSubspace.from_free_entries(["c11"]))
    assert span.k_dim == 2
    for w in span.k_basis:
        assert abs(w[0]) < 1e-8  # the w1 = 0 plane
    assert abs(span.k_basis[0] @ span.k_basis[1]) < 1e-9


def test_rank_drop_certificate_matches_span_gap():
    # nonzero verdict exactly when the admissible spans split nontrivially
    for name, kwargs, _, n_p, n_cp, _, verdict in PATTERNS:
        gap = n_p > n_cp >= 1
        assert (verdict != "none") == gap, name
    # with no nonzero CP member a verdict certifies nothing: this span reads
    # condition2 and 2b with n_cp 0, so only the implication is asserted
    v = ParamSubspace.from_vec6([[1, -0.1, 0.5, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    analysis = classify_subspace(v)
    if rank_drop_certificate(v) != "none" and analysis.n_cp != 0:
        assert analysis.n_p > analysis.n_cp


def _rotation(axis, angle):
    """Rodrigues' formula: the rotation by angle about a unit axis."""
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_orthogonal_invariance():
    # a random frame, and the benchmark's fixed frame C -> 1e3 Q C Q^T, also at scale 1
    random = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))[0]
    fixed = _rotation(np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0), 0.7)
    for index, (_, kwargs, *_) in enumerate(PATTERNS):
        v = build(kwargs)
        for q, scale in ((random.T, 1.0), (fixed, 1e3), (fixed, 1.0)):
            conj = ParamSubspace(np.stack([scale * q @ b @ q.T for b in v.basis]))
            _assert_same_classification(index, conj)


def test_tangent_slice_spans_three_dimensions():
    # symmetric matrices with vanishing (3,3) entry: PSD members span rank 3
    v = ParamSubspace.from_free_entries(["c11", "c22", "c12", "c13", "c23"])
    analysis = classify_subspace(v)
    assert analysis.n_cp == 3


def _line_pair_rows(c):
    """span{x^2 + y^2 - z^2, (x - c z)(x + 2 z)}: the line x = c z cuts the
    circle in two real points for c < 1 and misses it for c > 1; the line
    x = -2 z misses it."""
    return [[1, 1, -1, 0, 0, 0], [1, 0, -2 * c, 0, 1 - c / 2, 0]]


#: Pencils whose conics touch, and near-tangent ones, with k_dim and certificate
#: by hand.  The first four meet in one direction with contact of order four,
#: the hyper-osculating pair in e3 (order three) and e2; a circle and a line
#: pair meeting in two directions 2 sqrt(delta) apart span the plane of
#: them, and missing the circle by delta they have no common zero.
_TANGENT_PENCILS = [
    ("circle plus squared tangent", [[1, 1, -1, 0, 0, 0], [1, 0, 1, 0, -1, 0]], 1,
     "condition1"),
    ("circle plus squared tangent, another basis",
     [[1, 1, -1, 0, 0, 0], [1.5, 1, -0.5, 0, -0.5, 0]], 1, "condition1"),
    ("parabola touch", [[0, -1, 0, 0, 0.5, 0], [1, 0, 0, 0, 0, 0]], 1, "condition1"),
    ("osculating", [[-1, 0, 0, 0, 0, 0.5], [0, 1, 0, 0, 0, 0]], 1, "condition1"),
    ("hyper-osculating", [[-1, 0, 0, 0, 0, 0.5], [0, 0, 0, 0.5, 0, 0]], 2, "condition2"),
] + [(f"two points, delta {d:g}", _line_pair_rows(1.0 - d), 2, "condition2")
     for d in 10.0 ** -np.arange(2.0, 12.0)] + [
    (f"no point, delta {d:g}", _line_pair_rows(1.0 + d), 0, "none")
    for d in 10.0 ** -np.arange(2.0, 12.0, 3.0)]


@pytest.mark.parametrize("rows,k_dim,verdict", [p[1:] for p in _TANGENT_PENCILS],
                         ids=[p[0] for p in _TANGENT_PENCILS])
def test_tangent_pencils_read_the_same_in_every_frame(rows, k_dim, verdict):
    # the pencil splits along singular members exact to rounding, so contact
    # of any order gives one answer in every frame and at every element scale
    basis = np.stack([vec6_to_sym(np.asarray(r, dtype=float)) for r in rows])
    rng = np.random.default_rng(18)
    for k in range(24):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q[:, 0] *= np.linalg.det(q) * (-1.0) ** k  # proper and improper in turn
        scales = 10.0 ** rng.uniform(-3.0, 3.0, len(basis))
        v = ParamSubspace(np.stack([s * q @ b @ q.T for s, b in zip(scales, basis)]))
        assert (isotropic_span(v).k_dim, rank_drop_certificate(v)) == (k_dim, verdict), k


# ---------------------------------------------------------------------------
# invariance of the classification under rewriting the same subspace
# ---------------------------------------------------------------------------

_PATTERN_INDEX = st.integers(0, len(PATTERNS) - 1)
_UNIT_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _assert_same_classification(index, rewritten):
    """Same verdicts, k_dim and certificate as the pattern, and witnesses inside
    subspace and cone; returns the analysis."""
    name, _, case, n_p, n_cp, k_dim, verdict = PATTERNS[index]
    analysis = classify_subspace(rewritten)
    assert (analysis.case_label, analysis.n_p, analysis.n_cp) == (case, n_p, n_cp), name
    assert isotropic_span(rewritten).k_dim == k_dim, name
    assert rank_drop_certificate(rewritten) == verdict, name
    # exactly the labels with an admissible set on a cone boundary
    assert analysis.ambiguous == (case in ("2a", "3a", "3b")), name
    # normalized first: raw rows at scales 1e+-6 lose the small directions
    rows = np.stack([sym_to_vec6(b / np.linalg.norm(b)) for b in rewritten.basis])
    span = np.linalg.svd(rows, full_matrices=False)[2]
    for witnesses, to_cone in ((analysis.witnesses_p, dissipation_from_kossakowski),
                               (analysis.witnesses_cp, lambda w: w)):
        for w in witnesses:
            w6 = sym_to_vec6(w)
            assert np.linalg.norm(w6 - span.T @ (span @ w6)) <= 1e-8 * np.linalg.norm(w6), name
            image = to_cone(w)
            assert np.linalg.eigvalsh(image)[0] >= -1e-9 * np.linalg.norm(image), name
    return analysis


_SETTINGS = settings(deadline=None)


@_SETTINGS
@given(index=_PATTERN_INDEX, frame=arrays(float, (3, 3), elements=_UNIT_ENTRIES))
# a 45-degree rotation with a reflection, whose conjugate of E12 + E21 is
# diag(1, -1, 0) with 6.7e-17 off the diagonal
@example(index=[p[0] for p in PATTERNS].index("diagonal plus own coupling"),
         frame=np.array([[1.0, 0, 0], [1, 0, 0], [0, 0, 0]]))
def test_classification_survives_orthogonal_conjugation(index, frame):
    q = np.linalg.qr(frame)[0]  # orthogonal even when the frame is singular
    v = build(PATTERNS[index][1])
    _assert_same_classification(index, ParamSubspace(np.stack([q @ b @ q.T for b in v.basis])))


@_SETTINGS
@given(index=_PATTERN_INDEX, mixing=arrays(float, (6, 6), elements=_UNIT_ENTRIES),
       exponents=arrays(float, 6, elements=st.floats(-1.0, 1.0, allow_nan=False)))
def test_classification_survives_basis_mixing(index, mixing, exponents):
    v = build(PATTERNS[index][1])
    # singular values 10^exponents between two orthogonal factors: invertible,
    # with a condition number of at most 100
    left = np.linalg.qr(mixing[: v.n, : v.n])[0]
    right = np.linalg.qr(mixing[: v.n, : v.n].T)[0]
    mix = left @ np.diag(10.0 ** exponents[: v.n]) @ right
    _assert_same_classification(index, ParamSubspace(np.einsum("kl,lij->kij", mix, v.basis)))


@_SETTINGS
@given(index=_PATTERN_INDEX,
       exponents=arrays(float, 6, elements=st.floats(-6.0, 6.0, allow_nan=False)))
@example(index=0, exponents=np.full(6, -7.0))
def test_classification_survives_element_scaling(index, exponents):
    v = build(PATTERNS[index][1])
    scales = 10.0 ** exponents[: v.n]
    _assert_same_classification(index, ParamSubspace(v.basis * scales[:, None, None]))


# ---------------------------------------------------------------------------
# witnesses fixed by the subspace, and the central path against full centring
# ---------------------------------------------------------------------------

def _mixed(v, rng):
    """The same subspace in another basis: a mixing of condition number at most 100."""
    left, right = (np.linalg.qr(rng.standard_normal((v.n, v.n)))[0] for _ in range(2))
    mix = left @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, v.n)) @ right
    return ParamSubspace(np.einsum("kl,lij->kij", mix, v.basis))


def test_witnesses_do_not_depend_on_the_basis():
    # the face members are taken in a basis fixed by their span, so the
    # witnesses read the same however the subspace is written down; so do
    # the extents, rank-0 ones included (indefinite ray, pure coupling ray,
    # two couplings, near-definite ray)
    rng = np.random.default_rng(15)
    for index, (name, kwargs, _, n_p, n_cp, _, _) in enumerate(PATTERNS):
        analysis = classify_subspace(build(kwargs))
        assert len(analysis.witnesses_p) == (1 + n_p if n_p else 0), name
        assert len(analysis.witnesses_cp) == (1 + n_cp if n_cp else 0), name
        for _ in range(3):
            other = _assert_same_classification(index, _mixed(build(kwargs), rng))
            assert abs(analysis.extent_p - other.extent_p) <= 1e-12, name
            assert abs(analysis.extent_cp - other.extent_cp) <= 1e-12, name
            for ours, theirs in ((analysis.witnesses_p, other.witnesses_p),
                                 (analysis.witnesses_cp, other.witnesses_cp)):
                assert len(ours) == len(theirs), name
                for w, u in zip(ours, theirs):
                    assert np.abs(w - u).max() <= 1e-12, name


def _fully_centred_path(mats):
    """The central path with every barrier weight centred to a squared decrement of 1e-12."""
    m, r = mats.shape[:2]
    a = np.concatenate([-np.eye(r)[None], mats])
    z = np.zeros(m + 1)
    z[0] = -1.0
    for mu in 10.0 ** -np.arange(9):
        for _ in range(50):
            x = z[1:]
            s = 1.0 - x @ x
            w, vecs = np.linalg.eigh(np.einsum("k,kij->ij", z, a))
            root = vecs / np.sqrt(w)
            scaled = np.einsum("ia,kij,jb->kab", root, a, root)
            grad = np.trace(scaled, axis1=1, axis2=2)
            grad[0] += 1.0 / mu
            grad[1:] -= 2.0 * x / s
            ball = np.linalg.cholesky(2.0 * np.eye(m) / s + 4.0 * np.outer(x, x) / s**2)
            rr = np.linalg.qr(np.vstack([scaled.reshape(m + 1, -1).T,
                                         np.hstack([np.zeros((m, 1)), ball.T])]),
                              mode="r")
            step = np.linalg.solve(rr, np.linalg.solve(rr.T, grad))
            dec = float(grad @ step)
            z = z + (step / (1.0 + np.sqrt(dec)) if dec > 1.0 / 16.0 else step)
            if dec < 1e-12:
                break
    y = np.linalg.inv(np.einsum("k,kij->ij", z, a))
    return z[1:], y / np.trace(y)


def _centred_pass(mats):
    """_fully_centred_path as a facial-reduction pass (x, face, dual), read as the
    barrier path is: no face when sum_k x_k M_k is deeper than FEAS_TOL, and
    otherwise the kernel of the dual at _DUAL_CUT."""
    x, dual = _fully_centred_path(mats)
    centre = np.einsum("k,kab->ab", x, mats)
    if np.linalg.eigvalsh(centre)[0] > cones.FEAS_TOL * np.linalg.norm(centre):
        return x, None, dual
    vals, vecs = np.linalg.eigh(dual)
    return x, vecs[:, vals <= cones._DUAL_CUT], dual


def _coordinate_subspaces():
    """All 63 coordinate patterns, each as given and in two random frames,
    at element scales 1e-6..1e6 and with basis mixing."""
    rng = np.random.default_rng(1515)
    names = ["c11", "c22", "c33", "c12", "c13", "c23"]
    for k in range(1, 7):
        for entries in itertools.combinations(names, k):
            v = ParamSubspace.from_free_entries(entries)
            yield v
            for _ in range(2):
                q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                scales = 10.0 ** rng.uniform(-6.0, 6.0, v.n)
                mixed = _mixed(v, rng).basis * scales[:, None, None]
                yield ParamSubspace(np.stack([q @ b @ q.T for b in mixed]))


def _random_subspaces():
    """300 spans of one to six random symmetric matrices, in no particular frame."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = rng.standard_normal((rng.integers(1, 7), 3, 3))
        yield ParamSubspace(a + a.transpose(0, 2, 1))


def _barrier_calls(monkeypatch):
    """The shapes of the problems handed to the barrier path from now on."""
    shapes = []
    monkeypatch.setattr(cones, "_central_path", lambda mats, solve=cones._central_path:
                        shapes.append(mats.shape) or solve(mats))
    return shapes


def test_rough_centring_keeps_the_verdicts_of_full_centring(monkeypatch):
    # three weights four decades apart, each but the last centred only to a
    # decrement of 1/16, keep every verdict of nine fully centred weights and
    # move no extent by more than 1e-12, in fewer Newton steps; each step
    # factors the Newton matrix once by QR.  Random subspaces, since no pass
    # of a coordinate pattern reaches the barrier path, built before the
    # count starts, so that it counts Newton steps only
    subspaces = list(_random_subspaces())
    steps = [0]
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        steps[0] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    rough = [classify_subspace(v) for v in subspaces]
    rough_steps, steps[0] = steps[0], 0
    monkeypatch.setattr(cones, "_central_path", _fully_centred_path)
    full = [classify_subspace(v) for v in subspaces]
    assert 0 < rough_steps < steps[0]
    for ours, theirs in zip(rough, full):
        assert ((ours.case_label, ours.n_p, ours.n_cp, ours.ambiguous)
                == (theirs.case_label, theirs.n_p, theirs.n_cp, theirs.ambiguous))
        assert abs(ours.extent_p - theirs.extent_p) <= 1e-12
        assert abs(ours.extent_cp - theirs.extent_cp) <= 1e-12


def _projection_depth(v, cone):
    """lambda_min of the unit-norm projection of I onto the cone image of v."""
    images = v.basis if cone == "CP" else np.stack(
        [dissipation_from_kossakowski(b) for b in v.basis])
    rows = np.stack([m.reshape(9) / np.linalg.norm(m) for m in images])
    span = np.linalg.svd(rows, full_matrices=False)[2]
    projection = (span.T @ (span @ np.eye(3).reshape(9))).reshape(3, 3)
    return float(np.linalg.eigvalsh(projection / np.linalg.norm(projection))[0])


def _interior_extents(analysis):
    """(cone, extent) of each cone whose admissible set meets the cone's interior."""
    return [(cone, extent) for cone, extent, interior in (
        ("P", analysis.extent_p, analysis.case_label in ("2b", "3b", "3c")),
        ("CP", analysis.extent_cp, analysis.case_label == "3c")) if interior]


def test_projections_of_identity_decide_the_coordinate_patterns(monkeypatch):
    # conjugation by diagonal sign matrices maps a coordinate pattern onto
    # itself, in any frame and basis, so either P, the projection of I onto
    # the span, is definite, or I - P is the sum of the E_ii whose diagonal
    # entry is not free: no pass reaches the barrier path, and an interior
    # extent is the depth of P
    shapes = _barrier_calls(monkeypatch)
    rng = np.random.default_rng(20)
    library = [ParamSubspace(np.stack([q @ b @ q.T for b in build(kwargs).basis]))
               for _, kwargs, *_ in PATTERNS
               for q in (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(3))]
    checked = 0
    for v in itertools.chain(_coordinate_subspaces(), library):
        for cone, extent in _interior_extents(classify_subspace(v)):
            assert abs(extent - _projection_depth(v, cone)) <= 1e-12
            checked += 1
    assert shapes == []
    assert checked > 0


def test_projection_passes_keep_the_verdicts_of_full_centring(monkeypatch):
    # on random subspaces, where the projections of I leave some passes to
    # the barrier path, the verdicts are those of the fully centred path on
    # every pass of two or more members, and no interior extent, the depth
    # of P, lies above the fully centred one, the depth of the deepest unit
    # member
    subspaces = list(_random_subspaces())
    ours = [classify_subspace(v) for v in subspaces]
    monkeypatch.setattr(cones, "_projected", lambda members, tol: _centred_pass(members))
    for v, analysis in zip(subspaces, ours):
        full = classify_subspace(v)
        assert ((analysis.case_label, analysis.n_p, analysis.n_cp, analysis.ambiguous)
                == (full.case_label, full.n_p, full.n_cp, full.ambiguous))
        for (cone, extent), (_, depth) in zip(_interior_extents(analysis),
                                              _interior_extents(full)):
            assert extent <= depth + 1e-12, cone


def _rays():
    """Rays of every sign and rank pattern, none near flipping, each in three
    random frames at scales 1e-6..1e6."""
    rng = np.random.default_rng(17)
    for d in ([1, 1, 1], [1, 0.5, 0], [1, 0, 0], [-1, -0.3, 0], [-1, -1, -0.2],
              [1, -1, 0], [1, 1, -0.5], [2, -1, -0.5], [1, -0.1, 0], [0.3, -1, 0]):
        for _ in range(3):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            yield ParamSubspace((10.0 ** rng.uniform(-6.0, 6.0) * q @ np.diag(d) @ q.T)[None])


def test_exact_rays_match_full_centring(monkeypatch):
    # a one-member problem is solved from its eigenpairs; the fully centred
    # path on the same problem gives the same face rank, centre sign (through
    # the witnesses), case and extent, rank-0 extents included
    rays = list(_rays())
    exact = [(classify_subspace(v), [cones._analyze_cone(v, cone, cones.FEAS_TOL)
                                     for cone in ("P", "CP")]) for v in rays]
    monkeypatch.setattr(cones, "_ray", lambda member, tol: _centred_pass(member[None]))
    cases = set()
    for v, (ours, our_cones) in zip(rays, exact):
        theirs = classify_subspace(v)
        assert ((ours.case_label, ours.n_p, ours.n_cp)
                == (theirs.case_label, theirs.n_p, theirs.n_cp))
        cases.add(ours.case_label)
        for cone, (rank, n, extent, witnesses) in zip(("P", "CP"), our_cones):
            other = cones._analyze_cone(v, cone, cones.FEAS_TOL)
            assert (rank, n) == other[:2]
            assert abs(extent - other[2]) <= 1e-12
            assert len(witnesses) == len(other[3])
            for w, u in zip(witnesses, other[3]):
                assert np.abs(w - u).max() <= 1e-12
    assert cases == {"1", "2b", "3a", "3b", "3c"}


#: Frobenius-orthonormal basis of Sym(2): I/sqrt(2), then the two traceless directions.
_SYM2 = np.stack([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]]) / np.sqrt(2.0)


def _plane_through(angle, rng):
    """A random orthonormal basis of the plane of Sym(2) whose unit normal makes
    the given angle with I: it meets the PSD cone's interior above 45 degrees,
    touches it at 45 and misses it below, and is traceless at 0."""
    turn = rng.uniform(0.0, 2.0 * np.pi)
    normal = np.array([np.cos(angle), np.sin(angle) * np.cos(turn), np.sin(angle) * np.sin(turn)])
    mix = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    return np.einsum("kl,la,aij->kij", mix, np.linalg.svd(normal[None])[2][1:], _SYM2)


def _planted_faces():
    """(outcome, members) of 2x2 facial-reduction passes of every outcome.  The
    interior planes keep away from I, where X = I/sqrt(2) has a double
    eigenvalue and no one eigenvector is its lowest."""
    rng = np.random.default_rng(19)
    for degrees in (80, 60, 50, 46):
        for _ in range(3):
            yield "interior", _plane_through(np.radians(degrees), rng)
    corner = np.stack([np.diag([1.0, 0.0]), _SYM2[2]])  # {E11, E12 + E21}, orthonormal
    for _ in range(6):
        yield "tangent", _plane_through(np.pi / 4, rng)
        r, mix = (np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(2))
        yield "tangent", np.einsum("kl,lij->kij", mix, r @ corner @ r.T)
    for degrees in (35, 20, 0, 0):
        for _ in range(3):
            yield "missing", _plane_through(np.radians(degrees), rng)
    for _ in range(3):
        yield "all", np.einsum("kl,lij->kij", np.linalg.qr(rng.standard_normal((3, 3)))[0], _SYM2)


def test_two_by_two_faces_match_full_centring():
    # a pass on a 2x2 face is decided by the projections of I: both it and
    # the fully centred path meet the interior, in the same direction, or
    # x = 0 and both find the same face, N's kernel, with a trace-one dual; a
    # missing plane's dual is definite and orthogonal to the plane
    outcomes = set()
    for outcome, members in _planted_faces():
        x, face, dual = cones._projected(members, cones.FEAS_TOL)
        path_x, path_face, _ = _centred_pass(members)
        if outcome in ("tangent", "missing"):
            assert np.abs(face @ face.T - path_face @ path_face.T).max() <= 1e-12, outcome
            assert abs(np.trace(dual) - 1.0) <= 1e-12, outcome
            assert not x.any(), outcome
        else:
            assert face is None and path_face is None, outcome
            assert np.abs(x - path_x / np.linalg.norm(path_x)).max() <= 1e-12, outcome
            assert np.linalg.eigvalsh(np.einsum("k,kab->ab", x, members))[0] > cones.FEAS_TOL
        if outcome == "missing":
            assert np.linalg.eigvalsh(dual)[0] >= 0.1
            assert np.abs(np.einsum("ab,kab->k", dual, members)).max() <= 1e-15
        outcomes.add(outcome)
    assert outcomes == {"interior", "tangent", "missing", "all"}


def test_barrier_path_solves_only_three_by_three_problems(monkeypatch):
    # one-member passes go to _ray and the others to _projected, which
    # decides every pass of the library patterns in any frame and leaves to
    # the barrier path only 3x3 passes with two or more members
    shapes = _barrier_calls(monkeypatch)
    rng = np.random.default_rng(18)
    for _, kwargs, case, n_p, n_cp, _, _ in PATTERNS:
        for _ in range(3):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            v = ParamSubspace(np.stack([q @ b @ q.T for b in build(kwargs).basis]))
            analysis = classify_subspace(v)
            assert (analysis.case_label, analysis.n_p, analysis.n_cp) == (case, n_p, n_cp)
    assert shapes == []
    for v in _random_subspaces():
        classify_subspace(v)
    assert shapes
    assert all(shape[0] >= 2 and shape[1:] == (3, 3) for shape in shapes)


def _complement_extent(v, cone):
    """Minus lambda_min of the unit-norm central member of the orthogonal
    complement of the cone image of v, among the symmetric matrices."""
    images = v.basis if cone == "CP" else np.stack(
        [dissipation_from_kossakowski(b) for b in v.basis])
    span = cones._orthonormal(images)
    coords = span.reshape(len(span), 9) @ cones._SYM_BASIS.T
    comp = (np.linalg.svd(coords)[2][len(span):] @ cones._SYM_BASIS).reshape(-1, 3, 3)
    centre = np.einsum("k,kij->ij", _fully_centred_path(comp)[0], comp)
    return -float(np.linalg.eigvalsh(centre / np.linalg.norm(centre))[0])


def test_rank_zero_extent_lies_between_complement_depth_and_zero(monkeypatch):
    # the certifying dual is a unit member of the complement, so it is at
    # most as deep as the complement's deepest member, and definite; the
    # complements of rank-0 coordinate patterns all hold I, random subspaces
    # give the bound room.  In the thin pairs below N = I - P is definite,
    # its two small eigenvalues 5e-5 or 5e-6 of its trace, so the first
    # pass certifies them and neither _ray nor the barrier path runs.  A
    # singular N with a 2-dimensional kernel K, N PSD and <N, P> = 0, forces
    # P = I_K + 0, definite on K, so the next pass meets the interior; in the
    # last span, I - P = diag(0, 1.1, b) is PSD with a 1-dimensional kernel,
    # no member lies on it, and the barrier dual certifies the span
    rng = np.random.default_rng(16)
    random = [ParamSubspace(a + a.transpose(0, 2, 1))
              for a in (rng.standard_normal((rng.integers(1, 7), 3, 3)) for _ in range(100))]
    thin = []
    for eps in (-1e-4, -1e-5):
        rows = [vec6_to_sym(r) for r in ([1, -1, 0, 0, 0, 0], [1, 1, eps, 0, 0, 0])]
        thin += [(ParamSubspace(np.stack(rows)), "2b"),  # rank 0 for CP
                 (ParamSubspace(np.stack([kossakowski_from_dissipation(r) for r in rows])), "1")]
    b = (1.0 - np.sqrt(0.56)) / 2.0  # tr P = |P|^2 for P = diag(1, -0.1, 1 - b)
    corner = np.stack([np.diag([1.0, -0.1, 1.0 - b]), vec6_to_sym([0, 0, 0, 1, 0, 0])])
    singular = [ParamSubspace(np.stack([q @ m @ q.T for m in corner]))
                for q in [np.eye(3)] + [np.linalg.qr(rng.standard_normal((3, 3)))[0]
                                        for _ in range(4)]]
    for v in singular:
        analysis = classify_subspace(v)
        assert (analysis.case_label, analysis.n_cp) == ("2b", 0)
        assert analysis.extent_cp <= -0.05  # the barrier dual's depth, 0.0503
    sizes = []  # the face size of each facial-reduction pass, whichever solves it
    for name in ("_central_path", "_ray"):
        monkeypatch.setattr(cones, name, lambda mats, *tol, solve=getattr(cones, name):
                            sizes.append(mats.shape[-1]) or solve(mats, *tol))
    for v, label in thin:
        sizes.clear()
        assert classify_subspace(v).case_label == label
        assert sizes == []
    checked = 0
    for v in itertools.chain(_coordinate_subspaces(), random, (v for v, _ in thin), singular):
        analysis = classify_subspace(v)
        for cone, extent, rank_zero in (
                ("P", analysis.extent_p, analysis.case_label == "1"),
                ("CP", analysis.extent_cp, analysis.case_label in ("1", "2a", "2b"))):
            if rank_zero:
                assert _complement_extent(v, cone) - 1e-12 <= extent < 0.0
                checked += 1
    assert checked > 0


def test_passes_decide_from_their_own_eigenpairs(monkeypatch):
    # each pass returns the face it found, read off the eigenpairs that
    # decided it, and no centre or dual is decomposed again to decide it:
    # classifying the 63 coordinate patterns as given takes 548
    # eigendecompositions
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *args, solve=getattr(np.linalg, name):
                            calls.append(solve) or solve(*args))
    names = ["c11", "c22", "c33", "c12", "c13", "c23"]
    for k in range(1, 7):
        for entries in itertools.combinations(names, k):
            classify_subspace(ParamSubspace.from_free_entries(entries))
    assert len(calls) <= 548


def test_cone_analysis_maps_each_basis_in_one_call(monkeypatch):
    # the P cone maps a subspace's basis to D, and its witnesses back to C,
    # one stack each: at most 63 calls each on the 63 coordinate patterns
    calls = {"dissipation_from_kossakowski": 0, "kossakowski_from_dissipation": 0}
    for name in calls:
        monkeypatch.setattr(cones, name, lambda mats, name=name, convert=getattr(cones, name):
                            calls.__setitem__(name, calls[name] + 1) or convert(mats))
    names = ["c11", "c22", "c33", "c12", "c13", "c23"]
    for k in range(1, 7):
        for entries in itertools.combinations(names, k):
            classify_subspace(ParamSubspace.from_free_entries(entries))
    assert max(calls.values()) <= 63, calls


def _near_axis_frames():
    """(pattern index, subspace) of the library in the frames R_a(pi/4) R_b(theta),
    a, b in {x, y, z} and theta from 3e-8 to 1e-6: 648 subspaces."""
    for index, (_, kwargs, *_) in enumerate(PATTERNS):
        v = build(kwargs)
        for a, b in itertools.product(np.eye(3), repeat=2):
            for theta in (3e-8, 1e-7, 3e-7, 1e-6):
                q = _rotation(a, np.pi / 4) @ _rotation(b, theta)
                yield index, ParamSubspace(np.stack([q @ m @ q.T for m in v.basis]))


def test_near_axis_frames_keep_the_cone_verdicts():
    for index, v in _near_axis_frames():
        name, _, case, n_p, n_cp, *_ = PATTERNS[index]
        analysis = classify_subspace(v)
        assert (analysis.case_label, analysis.n_p, analysis.n_cp) == (case, n_p, n_cp), name


@pytest.mark.xfail(strict=True, reason="a pencil split leaves a common zero about 3e-8 off "
                   "its planes in a frame near a coordinate axis, so the lines found there "
                   "carry restricted forms above _ISOTROPIC_TOL: zero-22, zero-33 and "
                   "diagonal plus z-coupling read k_dim 0 for 1 and corner plus two "
                   "couplings 3 for 2, the count depending on the BLAS kernel")
def test_near_axis_frames_keep_the_isotropic_span():
    misread = []
    for index, v in _near_axis_frames():
        got = (isotropic_span(v).k_dim, rank_drop_certificate(v))
        if got != PATTERNS[index][5:]:
            misread.append((PATTERNS[index][0], got))
    assert not misread
