"""Exceptions shared across modules, and the one check of an int argument.

They live here, with no imports, so the command line can map the
exceptions to exit codes without loading the modules that raise them, and
every module can check its arguments without loading another.
"""


class SearchCapExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its cap."""


class InvariantViolation(RuntimeError):
    """A computed row failed its own defining congruences."""


class CheckpointBusy(RuntimeError):
    """Another writer holds the lock of a checkpoint."""


def check_int(name, value, lo=None, hi=None) -> None:
    """A ValueError naming the argument unless value is an int in lo..hi;
    either bound may be None.  A bool, which compares like 0 or 1, and a
    float, which compares like the int it equals, are refused.  A lone
    lower bound of 1 reads "positive"."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        if hi is None and lo == 1:
            raise ValueError(f"{name} must be positive, got {value}")
        raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")
