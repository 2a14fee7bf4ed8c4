"""Exception taxonomy shared across the package."""


class CluenetError(Exception):
    """Base class for all library errors."""


class DimensionError(CluenetError):
    """Operand shapes are incompatible with an operation's contract."""


class ConfigError(CluenetError):
    """A model or run configuration violates an invariant."""


class FormatError(CluenetError):
    """A container, checkpoint, trace or PPM file failed to parse."""
