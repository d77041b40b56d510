"""Print sha256 digests of Monte Carlo ensemble statistics.

The ensemble mean and standard error of a seeded ``mc_validate`` run should
not depend on the BLAS kernel.  Run this script under two OpenBLAS core
types and compare the outputs byte for byte:

    OPENBLAS_CORETYPE=Haswell python tests/mc_ensemble_hashes.py > haswell.txt
    OPENBLAS_CORETYPE=Sandybridge python tests/mc_ensemble_hashes.py > sandybridge.txt
    cmp haswell.txt sandybridge.txt

The Markov reference is left out: its exponentials go through LAPACK, whose
rounding does depend on the kernel.  The states of one ``mc_sample``
trajectory are hashed too, as they take the single-sample path.
"""

import hashlib

from spinaccess.stochastic import CorrelationModel, mc_sample, mc_validate

#: The README ``montecarlo`` model and the benchmark's two models.
MODELS = {
    "white": CorrelationModel("white", w11=0.3, w13=0.1, w33=0.2),
    "bivariate": CorrelationModel("exponential", w11=1.0, w13=0.3, w33=1.0, tau=0.1),
    "dephasing": CorrelationModel("exponential", w33=1.0, tau=0.1),
}


def digest(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def main():
    for name, model in MODELS.items():
        report = mc_validate(model, b3=1.0, u=1.0, v0=[0.5, 0.0, 0.0], dt=0.005,
                             t_final=1.0, n_samples=300, seed=7)
        for field in ("mean_states", "standard_error"):
            print(f"{name} {field} {digest(getattr(report, field))}")
    # a last step shorter than dt, 1.003 = 200 * 0.005 + 0.003
    traj = mc_sample(MODELS["bivariate"], b3=1.0, u=0.7, v0=[0.3, 0.2, 0.1], dt=0.005,
                     t_final=1.003, seed=7)
    print(f"bivariate sample states {digest(traj.states)}")


if __name__ == "__main__":
    main()
