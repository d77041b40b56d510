"""Cone-sweep inputs: hand-classified subspace patterns and a fixed transform.

The rows repeat entries of the repository's hand-classified pattern library
(tests/pattern_library.py), whose expected values were derived by hand from
the PSD conditions of each pattern.  The benchmark keeps its own copy so
that a later change to the tests does not change the benchmark's inputs.

Each entry: (name, rows in the (c11, c22, c33, c12, c13, c23) serialization,
case label, n_p, n_cp, isotropic span dimension k_dim, certificate).
"""

import numpy as np

from reference import sym

_E = np.eye(6)
C11, C22, C33, C12, C13, C23 = (_E[i].tolist() for i in range(6))

# Seven of the eighteen library patterns.  Together they take every case
# label (1, 2b, 3a, 3b, 3c), every certificate kind and every isotropic
# dimension (0 to 3); a pass over all eighteen and their copies takes about
# two minutes on a 2-core machine, longer than one run may last.
PATTERNS = [
    ("unit matrix ray", [[1, 1, 1, 0, 0, 0]], "3c", 1, 1, 0, "none"),
    ("indefinite ray", [[1, -1, 0, 0, 0, 0]], "1", 0, 0, 3, "none"),
    ("zero-22 full pattern", [C11, C33, C12, C13, C23], "3b", 5, 3, 1, "condition1"),
    ("upper block", [C11, C22, C12], "3b", 3, 3, 1, "none"),
    ("single diagonal entry", [C11], "3a", 1, 1, 2, "none"),
    ("corner plus coupling", [C33, C12], "3a", 2, 1, 2, "condition2"),
    ("near-definite ray", [[1, 1, -0.5, 0, 0, 0]], "2b", 1, 0, 3, "none"),
]

#: Fixed frame change C -> SCALE * Q C Q^T: a rotation by ANGLE about AXIS.
ANGLE = 0.7
AXIS = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
SCALE = 1e3


def rotation():
    """Rodrigues rotation matrix by ANGLE about AXIS."""
    k = np.array([[0.0, -AXIS[2], AXIS[1]],
                  [AXIS[2], 0.0, -AXIS[0]],
                  [-AXIS[1], AXIS[0], 0.0]])
    return np.eye(3) + np.sin(ANGLE) * k + (1.0 - np.cos(ANGLE)) * (k @ k)


def transformed_rows(rows):
    """Rows of the transformed copy: each basis element C -> SCALE Q C Q^T."""
    q = rotation()
    out = []
    for r in rows:
        c = SCALE * (q @ sym(r) @ q.T)
        out.append([c[0, 0], c[1, 1], c[2, 2], c[0, 1], c[0, 2], c[1, 2]])
    return out


def cases():
    """Every (name, is_copy, rows, expected) of one cone-sweep round.

    Each pattern appears as given and as its transformed copy; the copy is
    held to the hand-derived values of its original, since the verdicts
    depend only on the subspace, not on the frame or scale of its basis.
    """
    out = []
    for name, rows, label, n_p, n_cp, k_dim, cert in PATTERNS:
        expected = {"case": label, "n_p": n_p, "n_cp": n_cp, "k_dim": k_dim,
                    "certificate": cert}
        out.append((name, False, [list(map(float, r)) for r in rows], expected))
        out.append((name, True, transformed_rows(rows), expected))
    return out
