"""Periodic uniform grids on the flat torus (R/Z)^d.

The torus side length is fixed to 1, so ``spacing * n == 1`` exactly and all
index arithmetic wraps in every axis.  Cell centers sit at ``i / n`` (the
origin is a cell center), which makes the grid symmetric under ``x -> -x``:
the reflection maps cell ``i`` to cell ``(n - i) % n``.  Kernel sampling and
the odd-symmetry cancellations in the scheme rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid with n cells per axis on the unit torus.

    Attributes:
        d: spatial dimension, 2 or 3.
        n: number of cells per axis (powers of two recommended for the FFT
           paths, but not required).
    """

    d: int
    n: int

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 4:
            raise ValueError(f"need at least 4 cells per axis, got {self.n}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_count(self) -> int:
        return self.n**self.d

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.d

    def axis_coords(self) -> FloatArray:
        """Cell-center coordinates along one axis, in [0, 1)."""
        return np.arange(self.n) / self.n

    def centered_axis_coords(self) -> FloatArray:
        """Cell-center coordinates in the centered representation [-1/2, 1/2).

        Index order matches :meth:`axis_coords` (coordinate of cell ``i`` is
        congruent mod 1), so arrays built from these are already laid out for
        circular convolution with the origin at index 0.
        """
        i = np.arange(self.n)
        return ((i + self.n // 2) % self.n - self.n // 2) / self.n

    def meshgrid(self) -> tuple[FloatArray, ...]:
        """Cell-center coordinate arrays, shape ``self.shape``, ij-indexed."""
        c = self.axis_coords()
        return tuple(np.meshgrid(*([c] * self.d), indexing="ij"))

    def wrap_delta(self, dx: FloatArray) -> FloatArray:
        """Map coordinate differences into the fundamental interval [-1/2, 1/2)."""
        return (dx + 0.5) % 1.0 - 0.5

    def torus_distance(self, x: FloatArray, center: tuple[float, ...]) -> FloatArray:
        """Euclidean distance on the torus from points ``x`` to ``center``.

        ``x`` has shape (..., d).
        """
        delta = self.wrap_delta(x - np.asarray(center, dtype=float))
        return np.sqrt(np.sum(delta**2, axis=-1))
