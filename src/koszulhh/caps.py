"""Resource guard defaults shared by enumeration-heavy operations."""

from __future__ import annotations

import os

DEFAULT_CAP = 2_000_000
DEFAULT_BAR_CAP = 250_000


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
