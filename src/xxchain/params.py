"""Chain configuration, size caps, and shared error types."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Fixed caps on exponential-cost work.  LEVEL_CAP bounds arrays of 2^n numbers
# (energies, the label order, Boltzmann weights: 8 MiB each at n = 20);
# MATRIX_CAP bounds 2^n x 2^n work (Hamiltonian, eigenbasis, eigenstates, Gibbs
# states: 128 MiB at n = 12).  One byte budget cannot serve both, so there are two.
LEVEL_CAP = 20
MATRIX_CAP = 12

# The one working-memory budget: every chunked loop holds at most this many entries per step.
CHUNK_ENTRIES = 1 << 14


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
        check_index(self.n, 1, math.inf, "chain length")
        check_real(self.b, "field")
        if not check_real(self.j, "coupling") > 0:
            raise ValueError(f"coupling must be positive and finite, got {self.j!r}")
        # n*(3|b| + 2j) bounds every level energy and every partial sum behind it; Python floats do not warn
        try:
            bound = self.n * (3.0 * abs(float(self.b)) + 2.0 * float(self.j))
        except OverflowError:  # n or b is beyond the float range
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(f"level energies overflow: n*(3|b| + 2j) must be finite, got n = {self.n}, "
                             f"j = {self.j!r}, b = {self.b!r}")


def check_index(value, low: int, high: int, what: str) -> int:
    """The one rule for integer arguments: an int (not a bool) in low..high, returned as given."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise ValueError(f"{what} must be an integer in {low}..{high}, got {value!r}")
    return value


def check_real(value, what: str) -> float:
    """The one rule for real arguments: a finite int or float (not a bool), returned as given."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not -math.inf < value < math.inf:
        raise ValueError(f"{what} must be finite and real (an int or float), got {value!r}")
    return value


def check_cap(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise SizeLimitError(f"{what} needs n <= {limit}, got n = {n}")
