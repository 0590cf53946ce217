"""Tunable parameters and calibrated constants of the coloring engine.

Ratios are stored as exact fractions so that threshold comparisons
(clique dissolution, floor(8*a_D), sparsity tests) are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Ratio = Union[Fraction, int, str, float]

# stand-in for the unspecified universal constant of the decomposition
# guarantee; scales the sparse/dense dispatch
DELTA_CONST = 1
# multiplier on gamma*zeta in the sparse-slack check
SLACK_COEFF = 3
# sparse-balance constant: classes hold <= C_BAL*(n/zeta + log2 n)
C_BAL = 8
# multiplier on the retry caps before a phase restart
RETRY_SCALE = 8


def _frac(x: Ratio) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # the CLI passes Fractions; a float still gets a faithful small ratio
        return Fraction(x).limit_denominator(10**9)
    return Fraction(x)


@dataclass(frozen=True)
class Config:
    """Density/sparsity parameters.

    epsilon  almost-clique looseness, in (0, 1/6)
    zeta     sparsity threshold, in [1, delta_cap]
    gamma    phase-length factor: a phase is max(1, floor(gamma*zeta)) updates
    """

    epsilon: Fraction = Fraction(1, 110)
    zeta: int = 1
    gamma: Fraction = Fraction(1, 16)

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _frac(self.epsilon))
        object.__setattr__(self, "gamma", _frac(self.gamma))
        if not 0 < self.epsilon < Fraction(1, 6):
            raise ValueError("epsilon must lie in (0, 1/6)")
        if self.zeta < 1:
            raise ValueError("zeta must be >= 1")
        if not 0 < self.gamma:
            raise ValueError("gamma must be positive")

    @property
    def phase_length(self) -> int:
        return max(1, math.floor(self.gamma * self.zeta))

    def dense_path_active(self, delta_cap: int) -> bool:
        """Whether the decomposition-based engine applies at this degree cap.

        Below the threshold the naive neighborhood-scanning recolorer is
        both simpler and faster.
        """
        return delta_cap * self.epsilon**2 * DELTA_CONST >= self.zeta

    def acd_floors(self, delta_cap: int) -> tuple[int, int, int]:
        """The almost-clique rule's integers at this degree cap: the degree
        floor ceil((1-eps)*cap), the common-neighbor floor
        ceil((1-2*eps)*cap) and the size cap floor((1+eps)*cap)."""
        eps = self.epsilon
        return (
            math.ceil((1 - eps) * delta_cap),
            math.ceil((1 - 2 * eps) * delta_cap),
            math.floor((1 + eps) * delta_cap),
        )

    def dissolve_threshold(self) -> Fraction:
        """Cliques with a_D + e_D at or above this are folded into S."""
        return Fraction(50) * self.zeta / (DELTA_CONST * self.epsilon**2)

    def sparsity_floor(self) -> Fraction:
        """Minimum sparsity certified for vertices left outside cliques."""
        return self.epsilon**2 * DELTA_CONST  # multiplied by delta_cap

    def to_dict(self) -> dict:
        """The parameters plus the constants a run used."""
        return {
            "epsilon": str(self.epsilon),
            "zeta": self.zeta,
            "gamma": str(self.gamma),
            "delta_const": str(DELTA_CONST),
            "slack_coeff": str(SLACK_COEFF),
            "c_bal": str(C_BAL),
            "retry_scale": RETRY_SCALE,
        }


def ceil_log2(n: int) -> int:
    """The log n of the retry caps and the balance bound: ceil(log2 n),
    at least 1."""
    return math.ceil(math.log2(max(2, n)))


def auto_zeta(n: int) -> int:
    return max(1, math.ceil(n ** (2.0 / 3.0)))
