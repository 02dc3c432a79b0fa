"""Resource cap for enumeration sizes and LP dimensions.

Everything in this library is exact and in-core, so the only guard needed is
a hard ceiling on how many objects (types, grid atoms, ordered urn draws,
cell pairs, LP variables or rows) a single call may enumerate, and on how
many simplex pivots one LP solve may take.  The default suits desk scale;
the environment variable ``EXCHKIT_CAP`` overrides it per process.  Its
value is a positive integer in ASCII digits, read by the rule of
:func:`~exchkit.typespace.parse_fraction`; anything else is an input error.
"""

from __future__ import annotations

import os

from .errors import CapacityError, InputError
from .typespace import _parse_int

DEFAULT_RESOURCE_CAP = 50_000

_ENV_VAR = "EXCHKIT_CAP"


def resource_cap() -> int:
    """Return the active cap (``EXCHKIT_CAP`` env var, else the default)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_RESOURCE_CAP
    try:
        cap = _parse_int(raw)
    except InputError as exc:
        raise InputError(f"{_ENV_VAR}: {exc}") from None
    if cap <= 0:
        raise InputError(f"{_ENV_VAR}: must be positive, got {cap}")
    return cap


def ensure_within_cap(size: int, what: str, cap: int | None = None) -> None:
    """Raise :class:`CapacityError` if ``size`` exceeds ``cap``, by default
    the active cap; a loop that checks often reads the cap once and passes it."""
    if cap is None:
        cap = resource_cap()
    if size > cap:
        raise CapacityError(f"{what}: size {size} exceeds resource cap {cap}")
