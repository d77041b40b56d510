"""Check that the README ``classify`` reads the same under two OpenBLAS cores.

Runs ``spinaccess classify`` on the README subspace once per core type given
on the command line, each in a fresh process with ``OPENBLAS_CORETYPE`` set,
and compares the runs:

    PYTHONPATH=src python tests/classify_across_kernels.py Haswell Sandybridge

The case label, n, n_p, n_cp, the ambiguity flag, the certificate and the
exit code must be equal, and witnesses and extents must agree within 1e-12.
Bytes are not compared: the extents go through LAPACK ``eigvalsh``, whose
last bits depend on the kernel.  Exits 1 on any difference.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

#: The README ``classify`` input: every entry but c22 varies freely.
README_SUBSPACE = {"basis": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]}

EXACT = ("case", "n", "n_p", "n_cp", "ambiguous", "certificate")
CLOSE = ("extent_p", "extent_cp", "witnesses_p", "witnesses_cp")


def classify(core: str, workdir: str):
    """Exit code and output of the README classify under one OpenBLAS core."""
    source = os.path.join(workdir, "subspace.json")
    with open(source, "w") as fh:
        json.dump(README_SUBSPACE, fh)
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
    with tempfile.TemporaryDirectory() as workdir:
        runs = {core: classify(core, workdir) for core in cores}
    reference = cores[0]
    print(f"{reference}: exit {runs[reference][0]}, "
          + ", ".join(f"{key} {runs[reference][1][key]}" for key in EXACT))
    failed = False
    for core in cores[1:]:
        for problem in differences(runs[reference], runs[core]):
            print(f"{core} against {reference}: {problem}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
