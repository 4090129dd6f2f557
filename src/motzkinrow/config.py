"""Runtime limits, overridable through environment variables."""

import os

from .errors import ConfigError

# Longest word accepted anywhere (rank/unrank stay exact at this scale).
DEFAULT_MAX_WORD_LENGTH = 4096

# Largest range the exhaustive enumerator will materialize.
DEFAULT_ENUM_RANGE_LIMIT = 15

# Default range bound for exhaustive audits.
DEFAULT_AUDIT_SCOPE = 12


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {raw!r}")
    return value


def max_word_length():
    return _env_int("MOTZKINROW_MAX_WORD_LEN", DEFAULT_MAX_WORD_LENGTH)


def enum_range_limit():
    return _env_int("MOTZKINROW_ENUM_LIMIT", DEFAULT_ENUM_RANGE_LIMIT)


def audit_scope():
    return _env_int("MOTZKINROW_AUDIT_SCOPE", DEFAULT_AUDIT_SCOPE)
