"""Resource guards shared by enumeration-heavy operations: the defaults and the one check.

Each default is a constant; ``cap=`` in the library and ``--cap`` on the
command line are the only override.
"""

from __future__ import annotations

from .errors import CapExceeded

DEFAULT_CAP = 2_000_000  # admissible sequences of one Koszul piece
DEFAULT_BAR_CAP = 250_000  # bar-matrix workload per internal degree
MASSEY_CAP = 1 << 20  # defining systems enumerated by massey_product_set


def check_cap(what: str, needed: int, cap: int | None, default: int = DEFAULT_CAP) -> int:
    """Raise CapExceeded(what, needed, cap) when needed exceeds cap (default when None).

    Returns needed, so a count can be checked where it is taken.
    """
    cap = default if cap is None else cap
    if needed > cap:
        raise CapExceeded(what, needed, cap)
    return needed
