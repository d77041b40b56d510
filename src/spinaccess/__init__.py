"""Accessibility of dissipative qubit control under positivity constraints.

The package decides, for two-level Markovian open systems, whether requiring
the dissipative generator to be merely positivity-preserving versus
completely positive changes which directions of the Bloch ball the controls
can explore, and exhibits the observable consequences on a spin dephased by
a stochastic magnetic field.

Importing the package loads none of its modules: each name below, and each
module as an attribute (``spinaccess.cones``), is imported on first use, so
a process pays only for the modules it runs.
"""

__version__ = "0.1.0"

#: The names the package exports, by the module that defines them.
_EXPORTS = {
    "coherence": ("PAULI", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "coherence_to_density",
                  "density_to_coherence", "is_physical", "purity"),
    "cones": ("ConeAnalysis", "IsotropicSpan", "ParamSubspace", "classify_subspace",
              "is_completely_positive", "is_positive", "isotropic_span",
              "rank_drop_certificate"),
    "dynamics": ("ControlSchedule", "Trajectory", "evolve_schedule", "propagate",
                 "sz_derivatives"),
    "errors": ("InfeasibleParametersError", "InvalidModelError", "InvalidStateError",
               "SpinAccessError", "StepSizeError", "UnphysicalStateError"),
    "generator": ("dissipation_from_kossakowski", "hamiltonian_matrix",
                  "kossakowski_from_dissipation", "lindblad_superop", "sym_to_vec6",
                  "vec6_to_sym"),
    "liealg": ("AccessibilityReport", "LieClosure", "accessibility_verdict", "bracket",
               "compare_accessibility", "lie_closure", "switching_generators"),
    "reproduce": ("run_reproduction",),
    "stochastic": ("CorrelationModel", "MCValidationReport", "SpinFieldCoefficients",
                   "build_spin_generator", "coefficient_matrix", "coefficients",
                   "cp_admissible", "family_lie_dimension", "family_lie_generators",
                   "mc_sample", "mc_validate", "positivity_admissible"),
    # imported by the modules above, so an attribute of the package as they are
    "workers": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + sorted(_EXPORTS)


def __getattr__(name):
    """Import an exported name's module, or an exported module, on first use."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
