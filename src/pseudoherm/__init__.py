"""Pseudohermitian matrix analysis and non-unitary two-level dynamics.

The package decomposes diagonalizable complex matrices into biorthonormal
eigensystems, decides whether a spectrum is compatible with
pseudohermiticity, constructs the Hermitian intertwining metric and, when
every real eigenvalue is evenly degenerate, an antilinear symmetry whose
square is minus the identity.  Spectral propagators drive non-unitary
time evolution, and an exactly solvable two-level helicity model with
unequal couplings cross-checks the generic machinery end to end.
"""

from . import evolution, exceptions, spectral, spin_rotation, symmetry
from .evolution import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .spectral import *  # noqa: F403
from .spin_rotation import *  # noqa: F403
from .symmetry import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [*evolution.__all__, *exceptions.__all__, *spectral.__all__,
           *spin_rotation.__all__, *symmetry.__all__]
