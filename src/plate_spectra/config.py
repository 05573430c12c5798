"""Plate geometry, material and discretization parameters."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np


def _mode_numbers(**nums) -> tuple[int, ...]:
    """Mode numbers, or the mode count n_modes, as plain ints; ValueError unless
    each is an integer >= 1.  numpy integers pass, as for operator.index; floats
    do not, and neither do bools, which operator.index would read as 0 or 1."""
    try:
        got = tuple(x if type(x) is int else -1 if isinstance(x, (bool, np.bool_))
                    else int(operator.index(x)) for x in nums.values())
        if min(got) >= 1:
            return got
    except TypeError:
        pass
    raise ValueError("mode numbers must be integers >= 1, got "
                     + ", ".join(f"{name}={x!r}" for name, x in nums.items()))


@dataclass(frozen=True)
class PlateConfig:
    """Parameters of the partially hinged plate Omega = (0, pi) x (-ell, ell).

    Defaults are the standard bridge-deck configuration used throughout the
    benchmark tables: sigma = 0.2, ell = pi/150, density bounds 0.5 / 1.5
    (denser material has triple density), truncation 30 modes per parity.
    """

    ell: float = math.pi / 150
    sigma: float = 0.2
    alpha: float = 0.5
    beta: float = 1.5
    n_modes: int = 30

    def __post_init__(self) -> None:
        if not 0 < self.ell < math.inf:
            raise ValueError(f"ell must be positive and finite, got {self.ell}")
        if not 0 < self.sigma < 0.5:
            raise ValueError(f"sigma must lie in (0, 1/2), got {self.sigma}")
        if not 0 < self.alpha < 1 < self.beta < math.inf:
            raise ValueError(
                f"density bounds must satisfy 0 < alpha < 1 < beta < inf, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )
        (n_modes,) = _mode_numbers(n_modes=self.n_modes)
        object.__setattr__(self, "n_modes", n_modes)

    @property
    def area(self) -> float:
        """|Omega| = 2 pi ell."""
        return 2.0 * math.pi * self.ell

    def with_(self, **kwargs) -> "PlateConfig":
        return replace(self, **kwargs)
