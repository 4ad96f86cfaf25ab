"""Exception types shared across the library."""


class ContractViolation(RuntimeError):
    """An input broke a documented contract (a non-square or non-symmetric
    operator matrix, overlapping concurrent writes, a factor that should be
    orthonormal but is not)."""


class IntegrityError(RuntimeError):
    """On-disk data does not match its manifest (missing or truncated chunk)."""
