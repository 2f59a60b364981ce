"""Chain configuration, size caps, and shared error types."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Fixed caps on exponential-cost work.  LEVEL_CAP bounds arrays of 2^n numbers
# (energies, Boltzmann weights: 8 MiB at n = 20); MATRIX_CAP bounds 2^n x 2^n
# work (Hamiltonian, eigenbasis, eigenstates, Gibbs states: 128 MiB at n = 12).
# One byte budget cannot serve both, so there are two.
LEVEL_CAP = 20
MATRIX_CAP = 12


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


def check_cap(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise SizeLimitError(f"{what} needs n <= {limit}, got n = {n}")
