"""Pseudohermitian matrix analysis and non-unitary two-level dynamics.

The package decomposes diagonalizable complex matrices into biorthonormal
eigensystems, decides whether a spectrum is compatible with
pseudohermiticity, constructs the Hermitian intertwining metric and, when
every real eigenvalue is evenly degenerate, an antilinear symmetry whose
square is minus the identity.  Spectral propagators drive non-unitary
time evolution, and an exactly solvable two-level helicity model with
unequal couplings cross-checks the generic machinery end to end.
"""

from .evolution import (
    EvolutionOperator,
    evolution_operator,
    propagate,
    time_asymmetry,
    transition_probability,
)
from .exceptions import (
    ComplexSpectrumRegimeError,
    DegenerateModelError,
    EvolutionRangeError,
    NotDiagonalizableError,
    NotPseudohermitianError,
    OddDegeneracyError,
    PseudohermError,
    SingularIntertwinerError,
    ZeroSplittingError,
)
from .spectral import (
    BiorthonormalSystem,
    SpectrumClassification,
    biorthonormal_system,
    classify_spectrum,
    reconstruct,
)
from .spin_rotation import (
    ModelParams,
    coupling_ratio,
    effective_hamiltonian,
    level_splitting,
    model_eigenbasis,
    model_intertwiner,
    probe_asymmetry,
    probe_probability,
    probe_state,
    real_spectrum_regime,
    spin_flip_probability,
)
from .symmetry import (
    AntilinearOperator,
    Intertwiner,
    KramersReport,
    build_antilinear_symmetry,
    build_intertwiner,
    commutator_residual,
    intertwining_residual,
    kramers_test,
    square_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AntilinearOperator",
    "BiorthonormalSystem",
    "ComplexSpectrumRegimeError",
    "DegenerateModelError",
    "EvolutionOperator",
    "EvolutionRangeError",
    "Intertwiner",
    "KramersReport",
    "ModelParams",
    "NotDiagonalizableError",
    "NotPseudohermitianError",
    "OddDegeneracyError",
    "PseudohermError",
    "SingularIntertwinerError",
    "SpectrumClassification",
    "ZeroSplittingError",
    "biorthonormal_system",
    "build_antilinear_symmetry",
    "build_intertwiner",
    "classify_spectrum",
    "commutator_residual",
    "coupling_ratio",
    "effective_hamiltonian",
    "evolution_operator",
    "intertwining_residual",
    "kramers_test",
    "level_splitting",
    "model_eigenbasis",
    "model_intertwiner",
    "probe_asymmetry",
    "probe_probability",
    "probe_state",
    "propagate",
    "real_spectrum_regime",
    "reconstruct",
    "spin_flip_probability",
    "square_residual",
    "time_asymmetry",
    "transition_probability",
]
