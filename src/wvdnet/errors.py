"""Error categories shared across the package.

The CLI maps each onto an exit code: ConfigError to 1, and a ValueError,
DataError included, or an OSError to 2.
"""


class ConfigError(Exception):
    """Bad configuration: unknown keys, unparsable values, bad flag combinations."""


class DataError(ValueError):
    """Bad input data: undecodable audio, malformed manifests, missing files."""
