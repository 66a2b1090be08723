"""Resource guards shared by enumeration-heavy operations: the defaults and the one check."""

from __future__ import annotations

import os
from typing import Callable

from .errors import CapExceeded

DEFAULT_CAP = 2_000_000
DEFAULT_BAR_CAP = 250_000
# defining systems enumerated by massey_product_set; no environment override
MASSEY_CAP = 1 << 20


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def default_cap() -> int:
    """Sequence/matrix size guard; overridable via KOSZULHH_CAP."""
    return _env_cap("KOSZULHH_CAP", DEFAULT_CAP)


def bar_cap() -> int:
    """Bar-matrix workload guard per internal degree; overridable via KOSZULHH_BAR_CAP."""
    return _env_cap("KOSZULHH_BAR_CAP", DEFAULT_BAR_CAP)


def check_cap(
    what: str, needed: int, cap: int | None, default: Callable[[], int] = default_cap
) -> int:
    """Raise CapExceeded(what, needed, cap) when needed exceeds cap (default() when None).

    Returns needed, so a count can be checked where it is taken.
    """
    cap = default() if cap is None else cap
    if needed > cap:
        raise CapExceeded(what, needed, cap)
    return needed
