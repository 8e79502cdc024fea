"""Exception types shared across the library."""

from __future__ import annotations


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


class OracleMismatchError(MaxitiveError):
    """The grid oracle disagrees with the closed-form integral beyond tolerance."""


class SpecIssue:
    """One located problem in a spec document."""

    __slots__ = ("path", "message")

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message

    def __repr__(self):
        return f"SpecIssue({self.path!r}, {self.message!r})"

    def __str__(self):
        return f"{self.path}: {self.message}"

    def __eq__(self, other):
        return (
            isinstance(other, SpecIssue)
            and self.path == other.path
            and self.message == other.message
        )


class SpecValidationError(MaxitiveError):
    """A spec document failed validation; carries every located issue."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues) or "invalid spec")
