"""Exception types raised by the analysis and model routines."""

__all__ = [
    "AmbiguousSpectrumError", "ComplexSpectrumRegimeError", "DegenerateModelError",
    "EvolutionRangeError", "NotDiagonalizableError", "NotPseudohermitianError",
    "OddDegeneracyError", "PseudohermError", "SingularIntertwinerError",
    "ZeroSplittingError",
]


class PseudohermError(Exception):
    """Base class for all package-specific errors."""


class NotDiagonalizableError(PseudohermError):
    """The eigenvector matrix is numerically rank deficient.

    Raised when the condition number of the right-eigenvector matrix
    exceeds the requested ceiling, which is the working definition of
    "not diagonalizable" at finite precision.
    """


class NotPseudohermitianError(PseudohermError):
    """The spectrum cannot belong to a pseudohermitian operator.

    A complex eigenvalue group has no conjugate partner, or the paired
    groups disagree in multiplicity.
    """


class OddDegeneracyError(PseudohermError):
    """A real eigenvalue group has odd multiplicity.

    No antilinear symmetry squaring to minus the identity can commute
    with the operator in this case.  The offending groups are attached
    as a list of ``(value, multiplicity)`` tuples.
    """

    def __init__(self, groups):
        self.groups = list(groups)
        listing = ", ".join(f"{v:g} (x{m})" for v, m in self.groups)
        super().__init__(f"real eigenvalue groups with odd multiplicity: {listing}")


class AmbiguousSpectrumError(PseudohermError):
    """The eigenvalue groups do not hold up at the requested tolerance.

    The antilinear witness built on the groups leaves a commutator
    residual, or the metric built on them an intertwining residual, above
    ``(tol + 1e3 n eps) cond(V)``: the levels merged into one group, or a
    level counted as real, are further from it than a backward error of
    ``tol`` relative to the spectral radius explains, so the verdict is
    refused rather than given.
    """


class SingularIntertwinerError(PseudohermError):
    """The intertwining metric is numerically singular."""


class DegenerateModelError(PseudohermError):
    """The two-level model parameters make the coupling ratio undefined."""


class ZeroSplittingError(PseudohermError):
    """The two-level model collapses to a single eigenvalue.

    The effective Hamiltonian is then a Jordan block and has no
    eigenbasis to return.
    """


class ComplexSpectrumRegimeError(PseudohermError):
    """A closed form valid only for a real spectrum was requested outside it."""


class EvolutionRangeError(PseudohermError):
    """The requested time would overflow the evolution exponentials."""
