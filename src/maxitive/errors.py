"""Exception types shared across the library."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["MaxitiveError", "SpaceMismatchError", "SizeCapError", "CarrierDomainError",
           "DegenerateOperationError", "PreconditionError", "UnresolvedInfimumError",
           "CrossCheckError", "SpecIssue", "SpecValidationError"]


class MaxitiveError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(MaxitiveError):
    """Two objects bound to different measurable spaces were combined."""


class SizeCapError(MaxitiveError):
    """An enumeration would exceed its size cap.

    Operations refuse rather than silently sample.  Every cap is fixed:
    no argument or option lifts a refusal, and the message names the
    size and the cap ("21 atoms exceed the cap of 20").
    """


class CarrierDomainError(MaxitiveError):
    """A value outside a discrete chain's carrier was fed to its operation."""


class DegenerateOperationError(MaxitiveError):
    """A Radon-Nikodym operation was invoked with a degenerate ⊙.

    Degenerate means the only ⊙-finite element is 0; the density theory
    assumes non-degeneracy.
    """


class PreconditionError(MaxitiveError):
    """A documented operation precondition does not hold for the inputs."""


class UnresolvedInfimumError(MaxitiveError):
    """A sampled infimum estimate did not converge within budget.

    Carries the bracketing interval ``(lower, upper)`` that contains the
    true infimum.
    """

    def __init__(self, message: str, bracket: tuple):
        super().__init__(message)
        self.bracket = bracket


class CrossCheckError(MaxitiveError, AssertionError):
    """A cross-check found the library disagreeing with itself.

    Two routes to one answer differ (a closed form and its enumeration,
    the grid oracle and the threshold sweep).  The message says what
    disagreed and names the first failing subset where a subset is at
    fault.  The CLI reports it as one line on stderr with exit 1; it stays
    an AssertionError, since a failed cross-check is a failed assertion
    about the library.
    """


class SpecIssue(NamedTuple):
    """One located problem in a spec document."""

    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


class SpecValidationError(MaxitiveError):
    """A spec document failed validation; carries every located issue."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues) or "invalid spec")
