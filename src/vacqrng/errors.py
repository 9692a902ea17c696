"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """A value passed to an operation violates its contract."""


class ConfigError(ParameterError):
    """A configuration file failed to parse or validate."""


class NoExtractableEntropyError(ValueError):
    """Measured variances or budget parameters leave no extractable bits."""


class DataError(ValueError):
    """Input data is missing, malformed, or insufficient for the operation."""
