"""Shared exception types."""

import contextlib


class SpecError(ValueError):
    """A rejected experiment value; ``fields`` lists the spec fields at fault."""

    def __init__(self, fields: str, message: str):
        super().__init__(message)
        self.fields = fields.split()


@contextlib.contextmanager
def blame(fields: str):
    """Re-raise a ValueError or MemoryError of the enclosed code as a SpecError
    on ``fields``."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise SpecError(fields, str(exc)) from None


class EstimationError(RuntimeError):
    """An estimation stage could not produce a usable result.

    Raised e.g. when a spectral search finds fewer peaks than requested
    sources, or when estimated angles collide and the gain system becomes
    numerically singular. Batch drivers catch this and flag the trial
    instead of aborting.
    """
