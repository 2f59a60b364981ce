"""Chain configuration, size caps, and shared error types."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Fixed caps on exponential-cost work.  LEVEL_CAP bounds arrays of 2^n numbers
# (energies, the label order, Boltzmann weights: 8 MiB each at n = 20);
# MATRIX_CAP bounds 2^n x 2^n work (Hamiltonian, eigenbasis, eigenstates, Gibbs
# states: 128 MiB at n = 12).  One byte budget cannot serve both, so there are two.
LEVEL_CAP = 20
MATRIX_CAP = 12

# The one working-memory budget: every chunked loop holds at most this many entries per step.
CHUNK_ENTRIES = 1 << 14


class DomainError(ValueError):
    """An argument breaks its rule: outside the domain where the closed forms hold."""


class SizeLimitError(ValueError):
    """Chain length exceeds the cap for an exponential-cost operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or to bracket a root."""


@dataclass(frozen=True)
class ChainParams:
    """Physical configuration: ``n`` spins, coupling ``j`` > 0 and transverse field ``b``.

    ``j`` and ``b`` must keep n*(3|b| + 2j) finite, so no level energy overflows; they are kept as Python floats.
    """

    n: int
    j: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        check_index(self.n, 1, math.inf, "chain length")
        object.__setattr__(self, "b", check_real(self.b, "field"))
        object.__setattr__(self, "j", check_real(self.j, "coupling"))
        if not self.j > 0:
            raise DomainError(f"coupling must be positive and finite, got {self.j!r}")
        # n*(3|b| + 2j) bounds every level energy and every partial sum behind it; Python floats do not warn
        try:
            bound = self.n * (3.0 * abs(self.b) + 2.0 * self.j)
        except OverflowError:  # n is beyond the float range
            bound = math.inf
        if not math.isfinite(bound):
            raise DomainError(f"level energies overflow: n*(3|b| + 2j) must be finite, got n = {self.n}, "
                              f"j = {self.j!r}, b = {self.b!r}")


def check_index(value, low: int, high: int, what: str) -> int:
    """The one rule for integer arguments: an int (not a bool) in low..high, returned as given."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise DomainError(f"{what} must be an integer in {low}..{high}, got {value!r}")
    return value


def check_real(value, what: str) -> float:
    """The one rule for real arguments: an int or float (not a bool) in the finite float range, as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not abs(value) <= sys.float_info.max:
        raise DomainError(f"{what} must be finite and real (an int or float), got {value!r}")
    return float(value)


def check_beta(value, finite: bool = False) -> float:
    """The rule for an inverse temperature: an int or float (not a bool) >= 0 in the float range, or
    math.inf unless finite is asked for; returned as a float."""
    top = sys.float_info.max if finite else math.inf
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not (
            0 <= value <= sys.float_info.max or value == top):
        raise DomainError(f"inverse temperature must be {'finite and ' if finite else ''}>= 0, got {value!r}")
    return float(value)


def check_cap(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise SizeLimitError(f"{what} needs n <= {limit}, got n = {n}")
