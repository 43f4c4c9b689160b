"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An object (or its textual encoding) violates a structural invariant.

    The message names the violated invariant and, where it makes sense,
    the first offending index.
    """


class PreconditionError(ValueError):
    """An operation was called with arguments outside its contract."""


class SweepError(RuntimeError):
    """A sweep stopped short of a verdict: a worker died or missed instances."""
