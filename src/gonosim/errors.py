"""Exception types shared across the package."""


class GonosimError(Exception):
    """Base class for all domain errors."""


class ShapeMismatch(GonosimError):
    """Tensor or vector dimensions disagree with the declared (n, nu)."""


class SingularBasisChange(GonosimError):
    """A basis-change matrix is numerically singular."""


class SingularMap(GonosimError):
    """A linear map expected to be invertible is numerically singular."""


class NotStochastic(GonosimError):
    """Operation requires non-negative structure constants."""


class AbsorbedToO(GonosimError):
    """The normalized operator is undefined: one sex has total weight zero."""

    def __init__(self, message="state has an all-zero female or male part"):
        super().__init__(message)


class NotNormalizable(GonosimError):
    """Fixed point has a negative component or zero coordinate sum."""


class NotIdempotent(GonosimError):
    """Half of the supplied point does not square to itself."""


class DegenerateParameter(GonosimError):
    """Closed-form formula undefined for these parameter values."""


class DegenerateDenominator(GonosimError):
    """A denominator in a closed-form limit expression vanishes."""


class UncoveredCase(GonosimError):
    """No closed form is available for these parameters; use the numeric solver."""


class MaleExtinction(GonosimError):
    """The male coordinate vanished, so the classification criteria do not apply."""


class InvalidParameter(GonosimError):
    """Scenario parameter outside its admissible range."""
