import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinaccess import (ParamSubspace, classify_subspace,
                        dissipation_from_kossakowski, is_completely_positive,
                        is_positive, isotropic_span, rank_drop_certificate,
                        sym_to_vec6)

from pattern_library import PATTERNS, build


def test_subspace_validation():
    with pytest.raises(ValueError):
        ParamSubspace.from_vec6([])
    with pytest.raises(ValueError):  # dependent rows
        ParamSubspace.from_vec6([[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError):  # more than six directions cannot be independent
        ParamSubspace.from_vec6(np.vstack([np.eye(6), np.ones((1, 6))]))


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
    analysis = classify_subspace(ParamSubspace.from_vec6([[1, -1, 0, 0, 0, 0]]))
    assert analysis.extent_cp < -1e-6
    assert analysis.witnesses_cp == []


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


# ---------------------------------------------------------------------------
# invariance of the classification under rewriting the same subspace
# ---------------------------------------------------------------------------

_PATTERN_INDEX = st.integers(0, len(PATTERNS) - 1)
_UNIT_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _assert_same_classification(index, rewritten):
    """Same verdicts, k_dim and certificate as the pattern, and witnesses inside subspace and cone."""
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


_SETTINGS = settings(deadline=None)


@_SETTINGS
@given(index=_PATTERN_INDEX, frame=arrays(float, (3, 3), elements=_UNIT_ENTRIES))
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
