"""Chain configuration, size caps, and shared error types."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

# Caps on exponential-cost operations.  Everything is O(2^n) memory or worse
# past these points; the dense cap can be raised per call or via the
# XXCHAIN_DENSE_CAP environment variable (12 is a sane upper bound on a laptop).
ENUMERATION_CAP = 20
DENSE_CAP = 10
STATE_CAP = 12
ORACLE_CAP = 12
DENSE_CAP_ENV = "XXCHAIN_DENSE_CAP"


class SizeLimitError(ValueError):
    """Chain length exceeds the cap for an exponential-cost operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or to bracket a root."""


@dataclass(frozen=True)
class ChainParams:
    """Physical configuration: ``n`` spins, coupling ``j`` > 0 and transverse field ``b``.

    ``j`` and ``b`` must keep n*(3|b| + 2j) finite, so no level energy overflows.
    """

    n: int
    j: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"chain length must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.j) and self.j > 0):
            raise ValueError(f"coupling must be positive and finite, got {self.j!r}")
        # n*(3|b| + 2j) bounds every level energy and every partial sum behind it
        try:
            bound = self.n * (3.0 * abs(self.b) + 2.0 * self.j)
        except OverflowError:  # n itself is beyond the float range
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(f"level energies overflow: n*(3|b| + 2j) must be finite, got n = {self.n}, "
                             f"j = {self.j!r}, b = {self.b!r}")


def resolve_dense_cap(override: int | None = None) -> int:
    """Dense-matrix cap: explicit override, else XXCHAIN_DENSE_CAP, else DENSE_CAP."""
    if override is not None:
        return override
    env = os.environ.get(DENSE_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{DENSE_CAP_ENV} must be an integer, got {env!r}") from exc
    return DENSE_CAP


def check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise SizeLimitError(f"{what} needs n <= {cap}, got n = {n}")
