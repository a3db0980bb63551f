"""Container geometry: masks for the container Omega and the substrate S.

The container Omega is an open set compactly contained in the torus; the
substrate is its complement, S = T^d \\ closure(Omega).  Shapes are specified
analytically (disk, ellipse, axis band, convex polygon with rounded corners)
and the signed distance d_s(.; dOmega) is evaluated from the analytic
descriptor -- never reconstructed from the rasterized mask.  Convention:
d_s > 0 inside Omega.

On the grid, cells partition between the two phases by the sign of d_s at
the cell center: ``omega_mask + substrate_mask == 1`` cellwise.  Several
discrete identities downstream (the inequality suite in particular) rely on
this exact partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import FloatArray, TorusGrid


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# analytic shape descriptors


class Shape:
    """Analytic region with an exact (or densely sampled) signed distance."""

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
class Ellipse(Shape):
    """Axis-aligned ellipse (d=2), semi-axes (a, b).

    There is no closed-form signed distance; the distance is taken as the
    minimum over a dense boundary polyline (2^14 points), which is accurate
    to O(arc_step^2 * curvature) ~ 1e-8 here, far below grid spacing.
    """

    center: tuple[float, float]
    a: float
    b: float
    _samples: int = 16384

    def _boundary(self) -> FloatArray:
        t = np.linspace(0.0, 2.0 * np.pi, self._samples, endpoint=False)
        return np.stack(
            [self.center[0] + self.a * np.cos(t), self.center[1] + self.b * np.sin(t)],
            axis=-1,
        )

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        if grid.d != 2:
            raise GeometryError("ellipse shape is 2-d only")
        from scipy.spatial import cKDTree

        pts = np.stack(grid.meshgrid(), axis=-1).reshape(-1, 2)
        # non-periodic distance is exact here: the shape sits away from the seam
        dist, _ = cKDTree(self._boundary()).query(pts, k=1)
        dx = (pts[:, 0] - self.center[0]) / self.a
        dy = (pts[:, 1] - self.center[1]) / self.b
        inside = dx**2 + dy**2 < 1.0
        return np.where(inside, dist, -dist).reshape(grid.shape)

    def reach(self) -> float:
        lo, hi = min(self.a, self.b), max(self.a, self.b)
        return lo**2 / hi  # curvature radius at the tip of the major axis

    def seam_distance(self) -> float:
        gaps = [
            min(self.center[0] % 1.0, 1.0 - self.center[0] % 1.0) - self.a,
            min(self.center[1] % 1.0, 1.0 - self.center[1] % 1.0) - self.b,
        ]
        return min(gaps)


@dataclass(frozen=True)
class Band(Shape):
    """Slab {lo < x_axis < hi}; the flat-substrate geometry.

    With ``axis=1`` (the vertical coordinate in d=2) the substrate occupies
    the complement band and the lower boundary has outer normal (0, -1).
    """

    lo: float
    hi: float
    axis: int = 1

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise GeometryError(f"band requires 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")
        x = grid.meshgrid()[self.axis]
        w = self.hi - self.lo
        t = (x - self.lo) % 1.0
        inside = t < w
        return np.where(inside, np.minimum(t, w - t), -np.minimum(t - w, 1.0 - t))

    def reach(self) -> float:
        return min(self.hi - self.lo, 1.0 - (self.hi - self.lo)) / 2.0

    def seam_distance(self) -> float:
        # the band wraps the periodic axes; only the slab axis has a seam gap,
        # and the substrate fills it.  Treat as always admissible.
        return np.inf


@dataclass(frozen=True)
class RoundedPolygon(Shape):
    """Convex polygon with corners rounded at radius rho (d=2).

    The region is the Minkowski sum of the rho-inset polygon with a ball of
    radius rho, so the signed distance is (signed distance to the inset
    polygon) + rho, exact for convex polygons.  The boundary is C^{1,1}
    (curvature jumps where arcs meet edges); this is the documented smoothing
    compromise for polygonal containers.
    """

    vertices: tuple[tuple[float, float], ...]
    rho: float

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        v = np.asarray(self.vertices, dtype=float)
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if not (np.all(cross > 0) or np.all(cross < 0)):
            raise GeometryError("rounded polygon must be convex")

    def _inset_vertices(self) -> FloatArray:
        v = np.asarray(self.vertices, dtype=float)
        e = np.roll(v, -1, axis=0) - v
        cross_sign = np.sign(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])
        # inward unit normal of each edge
        normals = np.stack([-e[:, 1], e[:, 0]], axis=-1) * cross_sign
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        # intersect consecutive inset edge lines
        lines_p = v + self.rho * normals  # a point on each inset line
        inset = []
        m = len(v)
        for i in range(m):
            j = (i - 1) % m
            # solve p_i + t e_i = p_j + s e_j for the new vertex i
            A = np.array([[e[i, 0], -e[j, 0]], [e[i, 1], -e[j, 1]]])
            rhs = lines_p[j] - lines_p[i]
            t, _ = np.linalg.solve(A, rhs)
            inset.append(lines_p[i] + t * e[i])
        out = np.asarray(inset)
        if _polygon_signed_distance(out, out.mean(axis=0)[None, :])[0] <= 0:
            raise GeometryError(f"corner radius {self.rho} collapses the polygon inset")
        return out

    def signed_distance(self, grid: TorusGrid) -> FloatArray:
        if grid.d != 2:
            raise GeometryError("rounded polygon is 2-d only")
        pts = np.stack(grid.meshgrid(), axis=-1).reshape(-1, 2)
        d_inset = _polygon_signed_distance(self._inset_vertices(), pts)
        return (d_inset + self.rho).reshape(grid.shape)

    def reach(self) -> float:
        return self.rho

    def seam_distance(self) -> float:
        v = np.asarray(self.vertices, dtype=float)
        return float(min(np.min(v % 1.0), np.min(1.0 - v % 1.0)))


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


def _polygon_signed_distance(verts: FloatArray, pts: FloatArray) -> FloatArray:
    """Exact signed distance to a convex polygon, positive inside."""
    m = len(verts)
    a = verts
    b = np.roll(verts, -1, axis=0)
    e = b - a  # (m,2)
    # orient so the interior is on the left of each edge
    area2 = np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1])
    if area2 < 0:
        a, b = b, a
        e = -e
    d2 = np.full(pts.shape[0], np.inf)
    inside = np.ones(pts.shape[0], dtype=bool)
    for i in range(m):
        w = pts - a[i]
        t = np.clip((w @ e[i]) / (e[i] @ e[i]), 0.0, 1.0)
        proj = a[i] + t[:, None] * e[i]
        d2 = np.minimum(d2, np.sum((pts - proj) ** 2, axis=-1))
        inside &= (w[:, 0] * e[i, 1] - w[:, 1] * e[i, 0]) <= 0.0
    d = np.sqrt(d2)
    return np.where(inside, d, -d)


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
    full torus holds both as zero-stride constants), so callers copy
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
        "ellipse": Ellipse,
        "band": Band,
        "rounded_polygon": RoundedPolygon,
        "full": FullTorus,
    }
    if kind not in kinds:
        raise GeometryError(f"unknown shape kind '{kind}' (have {sorted(kinds)})")
    if kind == "rounded_polygon" and "vertices" in kwargs:
        kwargs["vertices"] = tuple(tuple(map(float, v)) for v in kwargs["vertices"])
    if "center" in kwargs:
        kwargs["center"] = tuple(map(float, kwargs["center"]))
    return kinds[kind](**kwargs)
