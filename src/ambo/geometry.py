"""Container geometry: masks for the container Omega and the substrate S.

The container Omega is an open set compactly contained in the torus; the
substrate is its complement, S = T^d \\ closure(Omega).  Shapes are specified
analytically (disk, a band in x2, the full torus) and the exact signed
distance d_s(.; dOmega) is evaluated from the analytic descriptor -- never
reconstructed from the rasterized mask.  Convention: d_s > 0 inside Omega.

On the grid, cells partition between the two phases by the sign of d_s at
the cell center: ``omega_mask + substrate_mask == 1`` cellwise.  Several
discrete identities downstream (the inequality suite in particular) rely on
this exact partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import FloatArray, TorusGrid, on_box


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# analytic shape descriptors


class Shape:
    """Analytic region with an exact signed distance."""

    #: shapes with no boundary on the torus (testing variant)
    boundaryless = False

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        raise NotImplementedError

    def reach(self) -> float:
        """Lower bound on the reach of the boundary (max valid strip width)."""
        raise NotImplementedError

    def seam_distance(self) -> float:
        """Distance from the region to the torus seam planes {x_j = 0}."""
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Shape):
    """Ball of radius r (any d)."""

    center: tuple[float, ...]
    radius: float

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        pts = np.stack(grid.meshgrid(), axis=-1)
        return self.radius - grid.torus_distance(pts, self.center)

    def reach(self) -> float:
        return self.radius

    def seam_distance(self) -> float:
        return min(
            min(c % 1.0, 1.0 - c % 1.0) for c in self.center
        ) - self.radius


@dataclass(frozen=True)
class Band(Shape):
    """Slab {lo < x2 < hi}; the flat-substrate geometry.

    The substrate occupies the complement band, and the lower boundary
    has outer normal (0, -1) in d=2.
    """

    lo: float
    hi: float

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise GeometryError(f"band requires 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")
        # Evaluated on the n values of x2 and broadcast read-only over the
        # other axes, as FullTorus holds its constant.
        x = grid.axis_coords()
        w = self.hi - self.lo
        t = (x - self.lo) % 1.0
        inside = t < w
        ds = np.where(inside, np.minimum(t, w - t), -np.minimum(t - w, 1.0 - t))
        return np.broadcast_to(ds.reshape((1, grid.n) + (1,) * (grid.d - 2)), grid.shape)

    def reach(self) -> float:
        return min(self.hi - self.lo, 1.0 - (self.hi - self.lo)) / 2.0

    def seam_distance(self) -> float:
        # the band wraps the periodic axes; only x2 has a seam gap,
        # and the substrate fills it.  Treat as always admissible.
        return np.inf


@dataclass(frozen=True)
class FullTorus(Shape):
    """Omega = T^d, S empty.  Testing variant for substrate-free energies."""

    boundaryless = True

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        # Read-only and zero-stride: a constant holds no per-cell memory.
        return np.broadcast_to(1.0, grid.shape)

    def reach(self) -> float:
        return np.inf

    def seam_distance(self) -> float:
        return np.inf


# ---------------------------------------------------------------------------
# geometry product


@dataclass
class Geometry:
    """Masks, signed distance and boundary normals for (Omega, S) on a grid.

    Attributes:
        omega_mask / substrate_mask: boolean masks, exact complements.
        signed_distance: d_s(.; dOmega), > 0 exactly where omega_mask.
        band_width: half-width of the band on which ``normal_band`` is set.
        delta: strip width for the tension construction strips Omega_delta^+-.

    ``signed_distance`` and ``normal_band`` may be read-only views (the
    full torus holds both as zero-stride constants, a band its distance
    as its x2 profile broadcast over the other axes), so callers copy
    before they write.
    """

    grid: TorusGrid
    shape: Shape
    omega_mask: np.ndarray
    substrate_mask: np.ndarray
    signed_distance: FloatArray
    band_width: float
    delta: float

    @property
    def has_substrate(self) -> bool:
        return not self.shape.boundaryless

    @cached_property
    def normal_band(self) -> FloatArray:
        """Outer unit normal nu_S = -grad d_s / |grad d_s|, shape (d, n, ...).

        Set on the cells within ``band_width`` of dOmega, NaN elsewhere
        (everywhere on a boundaryless shape); read-only, computed on first
        read and cached.  :func:`build_geometry` has checked that the
        gradient does not vanish on the band.
        """
        shape = (self.grid.d,) + self.grid.shape
        if not self.has_substrate:
            return np.broadcast_to(np.nan, shape)
        ds = self.signed_distance
        grad, norm = _distance_gradient(ds, self.grid)
        band = np.abs(ds) < self.band_width
        normal = np.full(shape, np.nan)
        normal[:, band] = -grad[:, band] / norm[band]
        normal.flags.writeable = False
        return normal

    @cached_property
    def omega_cells(self) -> np.ndarray:
        """Flat C-order indices of the container cells (read-only, cached)."""
        cells = np.flatnonzero(self.omega_mask)
        cells.flags.writeable = False
        return cells

    @cached_property
    def extent(self) -> tuple:
        """Per axis, the read-only bool mask of the coordinates that
        container cells take (computed on first read and cached)."""
        axes = tuple(range(self.grid.d))
        masks = []
        for axis in axes:
            mask = self.omega_mask.any(axis=axes[:axis] + axes[axis + 1 :])
            mask.flags.writeable = False
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def fills_extent(self) -> bool:
        """Whether the container is the product of its extents (a band, the
        torus), so that every cell of a box inside them is a container cell."""
        size = math.prod(int(mask.sum()) for mask in self.extent)
        return size == int(np.count_nonzero(self.omega_mask))

    def omega_on(self, box: tuple | None) -> np.ndarray | None:
        """The container mask on ``box`` (per axis ascending coordinates
        inside the extents; None: the grid), or None where every cell of
        it is a container cell."""
        if box is None:
            return self.omega_mask if self.has_substrate else None
        return None if self.fills_extent else on_box(self.omega_mask, box)

    @property
    def omega_cell_count(self) -> int:
        return self.omega_cells.size

    @property
    def omega_volume(self) -> float:
        return self.omega_cell_count * self.grid.cell_measure


def build_geometry(
    shape: Shape, grid: TorusGrid, delta: float | None = None
) -> Geometry:
    """Rasterize an analytic shape into a :class:`Geometry`.

    Omega must keep a clearance of max(delta, 8 * spacing) from the torus
    seam planes.

    Args:
        shape: analytic container descriptor.
        grid: target grid.
        delta: strip width for Omega_delta^+-; defaults to 8 * spacing.  Must
            stay below the analytic reach of dOmega.

    Raises:
        GeometryError: Omega touches the seam margin, or delta exceeds the
            reach of the boundary.
    """
    if delta is None:
        delta = 8.0 * grid.spacing
    if delta <= 0:
        raise GeometryError(f"delta must be positive, got {delta}")
    if delta >= shape.reach():
        raise GeometryError(
            f"delta={delta} exceeds the reach {shape.reach():.4g} of the boundary"
        )
    clearance = max(delta, 8.0 * grid.spacing)
    if shape.seam_distance() < clearance:
        raise GeometryError(
            f"Omega within {clearance:.4g} of the torus seam "
            f"(clearance {shape.seam_distance():.4g}); enlarge the torus margin"
        )

    ds = shape.signed_distance(grid)
    omega = ds > 0.0
    substrate = ~omega
    if shape.boundaryless:
        substrate = np.zeros_like(omega)

    band_width = delta + 2.0 * grid.spacing
    if not shape.boundaryless:
        _, norm = _distance_gradient(ds, grid)
        if np.any((np.abs(ds) < band_width) & (norm < 1e-12)):
            raise GeometryError(
                "vanishing distance gradient inside the normal band of width "
                f"delta + 2 spacing = {band_width:.4g} (delta={delta}, reach "
                f"{shape.reach():.4g}); choose a smaller delta"
            )

    return Geometry(
        grid=grid,
        shape=shape,
        omega_mask=omega,
        substrate_mask=substrate,
        signed_distance=ds,
        band_width=band_width,
        delta=float(delta),
    )


def _distance_gradient(ds: FloatArray, grid: TorusGrid) -> tuple[FloatArray, FloatArray]:
    """Central-difference gradient of d_s, shape (d, n, ...), and its norm."""
    grad = np.stack(
        [
            (np.roll(ds, -1, axis=ax) - np.roll(ds, 1, axis=ax)) / (2.0 * grid.spacing)
            for ax in range(grid.d)
        ]
    )
    return grad, np.sqrt(np.sum(grad**2, axis=0))


def band_mask(geometry: Geometry, sign: int, delta: float | None = None) -> np.ndarray:
    """Boolean strip Omega_delta^+ (inside) or Omega_delta^- (outside).

    ``sign=+1`` selects {0 < d_s < delta}, ``sign=-1`` selects {0 < -d_s < delta};
    both exclude cells on the boundary layer (strict inequalities).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if delta is None:
        delta = geometry.delta
    s = sign * geometry.signed_distance
    return (s > 0.0) & (s < delta)


def boundary_layer_mask(geometry: Geometry) -> np.ndarray:
    """Cells crossed by dOmega: |d_s| at the center below ~ one cell (boolean).

    These carry the Dirichlet data of the tension construction.  The width
    spacing/2 * sqrt(d) covers every cell whose interior the boundary can
    intersect while keeping the layer one to two cells thick.
    """
    width = 0.5 * np.sqrt(geometry.grid.d) * geometry.grid.spacing
    return np.abs(geometry.signed_distance) <= width


def make_shape(kind: str, **kwargs) -> Shape:
    """Shape factory used by the config layer."""
    kinds = {
        "disk": Disk,
        "band": Band,
        "full": FullTorus,
    }
    if kind not in kinds:
        raise GeometryError(f"unknown shape kind '{kind}' (have {sorted(kinds)})")
    if "center" in kwargs:
        kwargs["center"] = tuple(map(float, kwargs["center"]))
    return kinds[kind](**kwargs)
