"""Exception types shared across the package."""

from __future__ import annotations


class StructuralError(ValueError):
    """Inputs are structurally malformed (degree mismatch, bad table, ...)."""


class DomainError(ValueError):
    """Inputs are well formed but outside an operation's domain."""


class ScenarioError(ValueError):
    """Scenario text failed validation; maps to exit code 2."""


class InvariantError(ValueError):
    """A claimed algebraic property fails (not a subgroup, not a homomorphism, ...)."""


class CapacityError(RuntimeError):
    """An instance exceeds a configured cap.

    Always names the cap and the measured size so callers can raise the cap
    deliberately instead of hitting an opaque timeout.
    """

    def __init__(self, cap_name: str, cap_value: int, measured: int, hint: str = ""):
        self.cap_name = cap_name
        self.cap_value = cap_value
        self.measured = measured
        msg = f"instance exceeds {cap_name}={cap_value} (measured {measured})"
        if hint:
            msg += f"; {hint}"
        super().__init__(msg)
