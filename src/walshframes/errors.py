"""Exception types shared across the package."""


class WalshFramesError(Exception):
    """Base class for package errors."""


class ConfigError(WalshFramesError, ValueError):
    """Invalid field/system/run configuration (CLI exit code 2)."""


class InputDataError(WalshFramesError, ValueError):
    """Malformed input data such as a bad CSV row (CLI exit code 3)."""


class ResolutionError(WalshFramesError, ValueError):
    """A requested resolution would coarsen or otherwise break a cell table."""


class DegenerateInput(WalshFramesError, ValueError):
    """An input (usually the zero function) for which the quantity is undefined."""


class TruncationError(ConfigError):
    """A scale cutoff too small for the requested exactness claim."""
