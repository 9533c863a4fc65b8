"""Exception types shared across the package."""


class ZerocertError(Exception):
    """Base class for all package errors."""


class InputShapeError(ZerocertError, ValueError):
    """A vector or matrix argument has the wrong shape."""


class InvalidConfigurationError(ZerocertError, ValueError):
    """A construction or run parameter is outside its admissible set.

    Raised for an out-of-range value, a transform parameter outside its
    family's domain and a certificate method the problem does not support.
    """


class ConfigError(ZerocertError, ValueError):
    """A run configuration file failed to parse or validate.

    The message names the offending key with a dotted path, e.g. ``ball.radius``.
    """
