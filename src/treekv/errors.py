"""Exception hierarchy shared by every treekv module: one class per CLI exit code."""


class TreeKVError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TreeKVError):
    """Invalid run configuration, such as a wavelet level out of range for
    the signal or an unknown band selector.  Mapped to CLI exit code 2."""


class InputError(TreeKVError):
    """Malformed or missing input data.  Mapped to CLI exit code 3."""


class InvariantViolation(TreeKVError):
    """An internal invariant was broken: an array of the wrong shape, or an
    operation applied to a stream batch in the wrong state.  Mapped to CLI
    exit code 4."""
