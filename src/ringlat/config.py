"""Size bounds for constructions and enumerations.

Every constructor reads arith_limit and every enumerator lattice_limit;
only lattice.intermediate_algebras takes a per-call max_order in place of
lattice_limit.  RINGLAT_MAX_ORDER overrides both bounds from the
environment.  It must be a positive integer: any other value raises
PreconditionError (CLI exit 2) when a bound is read.  Element indices are
int16 (rings.ELEMENT), so arith_limit never exceeds ORDER_CEILING = 2^15,
whatever RINGLAT_MAX_ORDER says: a larger order is refused before anything
is built.
"""

from __future__ import annotations

import os

from .errors import PreconditionError

DEFAULT_ARITH_LIMIT = 4096
DEFAULT_LATTICE_LIMIT = 512
ORDER_CEILING = 1 << 15


def _env_override() -> int | None:
    raw = os.environ.get("RINGLAT_MAX_ORDER")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise PreconditionError(f"RINGLAT_MAX_ORDER must be a positive integer, got {raw!r}")
    return value


def arith_limit() -> int:
    return min(_env_override() or DEFAULT_ARITH_LIMIT, ORDER_CEILING)


def lattice_limit() -> int:
    return _env_override() or DEFAULT_LATTICE_LIMIT
