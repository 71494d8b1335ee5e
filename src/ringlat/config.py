"""Size bounds for constructions and enumerations.

RINGLAT_MAX_ORDER overrides both bounds from the environment.
"""

from __future__ import annotations

import os

DEFAULT_ARITH_LIMIT = 4096
DEFAULT_LATTICE_LIMIT = 512


def _env_override() -> int | None:
    raw = os.environ.get("RINGLAT_MAX_ORDER")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def arith_limit(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    return _env_override() or DEFAULT_ARITH_LIMIT


def lattice_limit(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    return _env_override() or DEFAULT_LATTICE_LIMIT
