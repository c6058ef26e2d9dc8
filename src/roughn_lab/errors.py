"""Shared exception types.

Plain ValueError is used for bad arguments and refused inputs, among them a
checkpoint that a run refuses to resume from and a prime table or weight
support above its memory budget; the CLI reports each as exit 2.  The classes
here mark failure modes callers are expected to branch on.
"""


class OutOfRangeError(ValueError):
    """A query point lies outside the cached grid of a profile object."""


class EmptySupportError(ValueError):
    """A weight table would contain no admissible integers at all."""


class NumericFailureError(RuntimeError):
    """A quadrature or normalization produced a non-finite or non-positive value."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search was stopped by its configured work budget."""
