"""Exception types shared across the package."""

from typing import Optional


class WreathlabError(Exception):
    """Base class for all package-specific errors."""


class GroupValidationError(WreathlabError):
    """A multiplication table violates a group axiom; message carries the witness."""


class GroupFormatError(GroupValidationError):
    """Group data is not well formed (a ragged or non-integer table, a mistyped or
    missing key, a non-integer JSON number), as opposed to violating a group axiom."""


class ActionValidationError(WreathlabError):
    """An action table violates an action axiom."""


class SizeLimitError(WreathlabError):
    """A construction would pass a size limit: a product past the int64 index range,
    a dense table above the dense cap, or an enumeration above its cap.

    ``order`` is the refused order, or None where it is decided without forming
    it (a tower whose wreath order 2^(2^k) * 2^k would have millions of digits).
    """

    def __init__(self, message: str, order: Optional[int] = None):
        super().__init__(message)
        self.order = order


class NonNormalSubgroupError(WreathlabError):
    """Quotient requested by a subgroup that is not normal."""


class SearchBudgetExceededError(WreathlabError):
    """Backtracking search ran out of nodes; distinct from a negative answer."""


class NotSurjectiveError(WreathlabError):
    """A section was requested for a non-surjective map."""


class SectionMismatchError(WreathlabError):
    """A supplied section is not a right inverse of the surjection."""


class NotEquivariantError(WreathlabError):
    """The supplied point bijection does not commute with the group actions."""


class NotIsomorphismError(WreathlabError):
    """A map required to be an isomorphism is not bijective or not a homomorphism."""


class UnsupportedPrimeError(WreathlabError):
    """Solvability criterion requested for a prime outside the desk-scale range."""


class DivisibilityViolationError(WreathlabError):
    """Size formula arguments violate the required divisibility."""


class TowerError(WreathlabError):
    """Invalid multiquadratic tower data."""
