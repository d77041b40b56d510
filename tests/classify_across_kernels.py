"""Check that ``classify`` reads the same under two OpenBLAS cores.

Runs ``spinaccess classify`` on each subspace of ``SUBSPACES`` once per core
type given on the command line, each in a fresh process with
``OPENBLAS_CORETYPE`` set, and compares the runs:

    PYTHONPATH=src python tests/classify_across_kernels.py Haswell Sandybridge

The subspaces are the README one (3b, a boundary face, exit 2), two with a
cone that meets the PSD cone only at zero, whose extent comes from the
facial-reduction dual: the indefinite ray (case 1, both cones) and the
near-definite ray (2b, the CP cone), both exit 0, and the thin PSD ray
span{diag(1, 1e-5, 0)} in the benchmark's frame C -> 1e3 Q C Q^T (3b, exit
2), whose rank-2 CP face is read off the eigenpairs of its one member, and
the parabola touch span{xz - y^2, x^2} in the same frame (3b, exit 2,
certificate condition1), and the corner plus coupling, rows {c33, c12}, in
that frame too (3a, exit 2, certificate condition2), whose P cone is
decided on a 2x2 face by the projection of I onto it, and span{E11,
E12+E21+2 E33}, rows {c11, c12 + 2 c33}, as given and in that frame (3b,
n_cp 1, exit 2), and the singular-normal corner span{diag(1, -0.1, 1 - b),
E12+E21}, b = (1 - sqrt(0.56))/2 (2b, exit 0), and the slightly indefinite
ray span{diag(1, -1e-6, 0)} in the benchmark's frame (case 1, exit 0), whose
one member's eigenpairs leave no face.  Every other pass here is
exact, from one member's eigenpairs or from the projection of I, but the
first CP pass of the coupled corner and of the parabola touch is decided by
neither, and the singular-normal corner's CP cone, whose I - P = diag(0, 1.1,
b) is PSD but singular, takes its rank-0 certificate from the barrier path,
so those keep the barrier path under both cores.  The conics of the parabola touch meet in
one direction with contact of order four, so its isotropic span rests on
treating the pencil's rank-one member as singular to rounding level.  For
each, the case label, n, n_p, n_cp, the ambiguity flag, the certificate and
the exit code must be equal, and witnesses and extents must agree within
1e-12.  Bytes are not compared: the extents go through LAPACK ``eigvalsh``,
whose last bits depend on the kernel.  Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def _benchmark_frame(c) -> list:
    """The (c11, c22, c33, c12, c13, c23) row of 1e3 Q C Q^T, Q the rotation
    by 0.7 rad about (1, 2, 3) / sqrt(14), by Rodrigues' formula."""
    x, y, z = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    q = np.eye(3) + np.sin(0.7) * k + (1.0 - np.cos(0.7)) * (k @ k)
    m = 1e3 * q @ np.asarray(c, dtype=float) @ q.T
    return [m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]]


#: Name and ``classify`` input of each subspace; the README one has every
#: entry but c22 free, the first two rays are those of the pattern library.
SUBSPACES = {
    "README": {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                         [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]},
    "indefinite ray": {"basis": [[1, -1, 0, 0, 0, 0]]},
    "near-definite ray": {"basis": [[1, 1, -0.5, 0, 0, 0]]},
    "thin PSD ray": {"basis": [_benchmark_frame(np.diag([1.0, 1e-5, 0.0]))]},
    "parabola touch": {"basis": [_benchmark_frame([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0],
                                                   [0.5, 0.0, 0.0]]),
                                 _benchmark_frame(np.diag([1.0, 0.0, 0.0]))]},
    "corner plus coupling": {"basis": [_benchmark_frame(np.diag([0.0, 0.0, 1.0])),
                                       _benchmark_frame([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                                         [0.0, 0.0, 0.0]])]},
    "coupled corner": {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 2, 1, 0, 0]]},
    "coupled corner in frame": {"basis": [_benchmark_frame(np.diag([1.0, 0.0, 0.0])),
                                          _benchmark_frame([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                                            [0.0, 0.0, 2.0]])]},
    "singular-normal corner": {"basis": [[1, -0.1, (1 + np.sqrt(0.56)) / 2, 0, 0, 0],
                                         [0, 0, 0, 1, 0, 0]]},
    "slightly indefinite ray": {"basis": [_benchmark_frame(np.diag([1.0, -1e-6, 0.0]))]},
}

EXACT = ("case", "n", "n_p", "n_cp", "ambiguous", "certificate")
CLOSE = ("extent_p", "extent_cp", "witnesses_p", "witnesses_cp")


def classify(subspace: dict, core: str, workdir: str):
    """Exit code and output of classify on one subspace under one OpenBLAS core."""
    source = os.path.join(workdir, "subspace.json")
    with open(source, "w") as fh:
        json.dump(subspace, fh)
    target = os.path.join(workdir, f"analysis-{core}.json")
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    code = subprocess.run([sys.executable, "-m", "spinaccess.cli", "classify",
                           "--input", source, "--output", target], env=env).returncode
    with open(target) as fh:
        return code, json.load(fh)


def differences(first, second) -> list:
    """What differs between two (exit code, output) runs, beyond 1e-12 where numeric."""
    (code_a, out_a), (code_b, out_b) = first, second
    found = [] if code_a == code_b else [f"exit code {code_a} != {code_b}"]
    found += [f"{key} {out_a[key]!r} != {out_b[key]!r}"
              for key in EXACT if out_a[key] != out_b[key]]
    for key in CLOSE:
        a, b = np.asarray(out_a[key], dtype=float), np.asarray(out_b[key], dtype=float)
        if a.shape != b.shape:
            found.append(f"{key} shape {a.shape} != {b.shape}")
        elif a.size and np.abs(a - b).max() > 1e-12:
            found.append(f"{key} differ by {np.abs(a - b).max():.3g}")
    return found


def main(argv):
    cores = argv or ["Haswell", "Sandybridge"]
    reference, failed = cores[0], False
    for name, subspace in SUBSPACES.items():
        with tempfile.TemporaryDirectory() as workdir:
            runs = {core: classify(subspace, core, workdir) for core in cores}
        print(f"{name}, {reference}: exit {runs[reference][0]}, "
              + ", ".join(f"{key} {runs[reference][1][key]}" for key in EXACT))
        for core in cores[1:]:
            for problem in differences(runs[reference], runs[core]):
                print(f"{name}, {core} against {reference}: {problem}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
