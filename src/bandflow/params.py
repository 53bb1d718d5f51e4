"""Model parameters shared by the quantum, semi-quantum, and classical layers."""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass


_REAL = (int, float)


def _is_finite(value, types) -> bool:
    """True for a finite value of one of ``types``; a bool never counts."""
    if isinstance(value, bool) or not isinstance(value, types):
        return False
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class PhysParams:
    """Control parameter A, couplings (delta, d, gamma), and quantum numbers L, S.

    ``delta`` and ``d`` are real, ``gamma`` complex.  L is a non-negative
    integer and S a non-negative integer or half-integer; 2S+1 is the number
    of bands.  S > L is allowed but unusual, so it only warns.
    """

    A: float
    delta: float
    d: float
    gamma: complex
    L: int
    S: float

    def __post_init__(self):
        for name in ("A", "delta", "d", "S"):
            if not _is_finite(getattr(self, name), _REAL):
                raise ValueError(f"{name} must be a finite real number, "
                                 f"got {getattr(self, name)!r}")
        if not _is_finite(self.gamma, (*_REAL, complex)):
            raise ValueError(f"gamma must be a finite complex number, got {self.gamma!r}")
        if not isinstance(self.L, int) or isinstance(self.L, bool) or self.L < 0:
            raise ValueError(f"L must be a non-negative integer, got {self.L!r}")
        two_s = 2.0 * float(self.S)
        if self.S < 0 or abs(two_s - round(two_s)) > 1e-12:
            raise ValueError(
                f"S must be a non-negative integer or half-integer, got {self.S!r}"
            )
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "S", float(self.S))
        if self.S > self.L:
            warnings.warn(
                f"S={self.S} exceeds L={self.L}; the model is intended for S <= L",
                stacklevel=2,
            )

    @property
    def n_bands(self) -> int:
        return round(2 * self.S) + 1

    @property
    def n_levels(self) -> int:
        return self.n_bands * (2 * self.L + 1)
