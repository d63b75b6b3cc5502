"""Exceptions shared across modules.

They live here, with no imports, so the command line can map them to exit
codes without loading the modules that raise them.
"""


class SearchCapExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its cap."""


class InvariantViolation(RuntimeError):
    """A computed row failed its own defining congruences."""


class CheckpointBusy(RuntimeError):
    """Another writer holds the lock of a checkpoint."""
