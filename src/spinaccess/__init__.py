"""Accessibility of dissipative qubit control under positivity constraints.

The package decides, for two-level Markovian open systems, whether requiring
the dissipative generator to be merely positivity-preserving versus
completely positive changes which directions of the Bloch ball the controls
can explore, and exhibits the observable consequences on a spin dephased by
a stochastic magnetic field.
"""

from .coherence import (PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, coherence_to_density,
                        density_to_coherence, is_physical, purity)
from .cones import (ConeAnalysis, IsotropicSpan, ParamSubspace,
                    classify_subspace, is_completely_positive, is_positive,
                    isotropic_span, rank_drop_certificate)
from .dynamics import (ControlSchedule, Trajectory, evolve_schedule, propagate,
                       sz_derivatives)
from .errors import (InfeasibleParametersError, InvalidModelError,
                     InvalidStateError, SpinAccessError, StepSizeError,
                     UnphysicalStateError)
from .generator import (dissipation_from_kossakowski, hamiltonian_matrix,
                        kossakowski_from_dissipation, lindblad_superop,
                        sym_to_vec6, vec6_to_sym)
from .liealg import (AccessibilityReport, LieClosure, accessibility_verdict,
                     bracket, compare_accessibility, lie_closure,
                     switching_generators)
from .reproduce import run_reproduction
from .stochastic import (CorrelationModel, MCValidationReport,
                         SpinFieldCoefficients, build_spin_generator,
                         coefficient_matrix, coefficients, cp_admissible,
                         family_lie_dimension, family_lie_generators,
                         mc_sample, mc_validate, positivity_admissible)

__version__ = "0.1.0"
