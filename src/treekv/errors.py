"""Exception hierarchy shared by every treekv module."""


class TreeKVError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TreeKVError):
    """Vector, matrix, or row length does not match the expected shape."""


class StateError(TreeKVError):
    """Operation applied to a stream batch, cursor or model in the wrong state."""


class ConfigError(TreeKVError):
    """Invalid run configuration.  Mapped to CLI exit code 2."""


class InputError(TreeKVError):
    """Malformed or missing input data.  Mapped to CLI exit code 3."""


class LevelError(ConfigError):
    """Requested wavelet decomposition level is out of range for the signal."""


class SelectorError(ConfigError):
    """Unknown wavelet band selector."""


class InvariantViolation(TreeKVError):
    """An internal invariant was broken.  Mapped to CLI exit code 4."""
