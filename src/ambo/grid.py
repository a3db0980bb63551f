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


def axis_index(coords: np.ndarray) -> slice | np.ndarray:
    """An index for ascending axis coordinates: a slice when they are
    contiguous, so that indexing with it gives a view, else ``coords``."""
    if coords.size and coords[-1] - coords[0] + 1 == coords.size:
        return slice(int(coords[0]), int(coords[-1]) + 1)
    return coords


def on_box(a: np.ndarray, box: tuple | None) -> np.ndarray:
    """The grid array ``a`` on a box: per axis, the ascending coordinates
    in ``box`` (None: the whole grid, ``a`` itself).  A view where every
    axis is contiguous, else a copy of the box alone (the contiguous axes
    are sliced before any other is gathered); its C order is the grid's
    cell order restricted to the box."""
    index = [axis_index(coords) for coords in box or ()]
    a = a[tuple(i if isinstance(i, slice) else slice(None) for i in index)]
    for axis, i in enumerate(index):
        if not isinstance(i, slice):
            a = a.take(i, axis=axis)
    return a


def profile(a: np.ndarray, box: tuple | None = None) -> np.ndarray:
    """The grid array ``a`` on ``box`` (as in :func:`on_box`) with each
    zero-stride axis, along which ``a`` is one value, cut to one layer:
    it broadcasts back to the box with the same values."""
    box = box or tuple(np.arange(size) for size in a.shape)
    return on_box(a, tuple(c[:1] if s == 0 else c for s, c in zip(a.strides, box)))


def cut_box(mask: np.ndarray, box: tuple | None = None) -> tuple[tuple, np.ndarray]:
    """The cells set in the bool ``mask`` on ``box`` (per axis ascending
    grid coordinates; None: the whole grid) as their own box: per axis
    the coordinates that hold a cell, ascending, and the mask cut to
    their product, a read-only C-order array.  A set that crosses the
    seam needs no cyclic logic: its box holds the coordinates at both
    ends of the axis.  The box's C order is the grid's cell order."""
    d = mask.ndim
    keep = [np.flatnonzero(mask.any(axis=tuple(j for j in range(d) if j != k))) for k in range(d)]
    axes = tuple(keep if box is None else (b[k] for b, k in zip(box, keep)))
    cut = on_box(mask, keep)
    if np.may_share_memory(cut, mask) or not cut.flags.c_contiguous:
        cut = cut.copy()  # C order, and the caller's array stays writeable
    cut.flags.writeable = False
    return axes, cut


def periodic_components(cell_box: tuple, shape: tuple) -> tuple[int, np.ndarray]:
    """Connected components of the cells of a cell box (axes, mask) on
    the torus of grid ``shape``, where cells that share a face, across a
    seam too, are connected: the component count and labels 1 .. count
    on the box (0 off its cells), in the order of each component's first
    cell, so that they are the whole grid's labels read on the box.

    Layer i and layer i + 1 of an axis (the last and the first) are
    neighbours exactly when their coordinates differ by 1 mod n, across
    the box's gaps and the seam, as the interface count pairs them.
    Union-find over all face pairs at once: each pair whose roots differ
    hooks the larger root to the smaller, pointer jumping brings every
    cell back to its root, and the pairs within one tree are dropped.
    """
    axes, mask = cell_box
    cells = np.flatnonzero(mask)
    index = np.full(mask.shape, -1, dtype=np.intp)
    index.flat[cells] = np.arange(cells.size)
    ahead = []
    for axis, (coords, n) in enumerate(zip(axes, shape)):
        nb = np.roll(index, -1, axis=axis)
        gap = (np.roll(coords, -1) - coords) % n != 1
        nb[(slice(None),) * axis + (gap,)] = -1
        ahead.append(nb.flat[cells])
    a = np.concatenate([np.flatnonzero(nb >= 0) for nb in ahead])
    b = np.concatenate([nb[nb >= 0] for nb in ahead])
    parent = np.arange(cells.size)
    while a.size:
        root_a, root_b = parent[a], parent[b]
        apart = root_a != root_b
        a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
        parent[np.maximum(root_a, root_b)] = np.minimum(root_a, root_b)
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
    # A root is its own parent; its label is the count of roots up to it.
    rank = np.cumsum(parent == np.arange(cells.size))
    out = np.zeros(mask.shape, dtype=np.intp)
    out.flat[cells] = rank[parent]
    return int(rank[-1]) if rank.size else 0, out
