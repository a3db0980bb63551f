"""The approximate convolution energy, its sharp limit, and the lemma checks.

The central object is

    E_h(u) = (1/sqrt(h)) * integral over the container of
        g_pv * u * K_h*(1_container - u)
      + g_sp * u * K_h*(1_substrate)
      + g_sv * (1_container - u) * K_h*(1_substrate),

discretised with the cell-measure midpoint rule, so that E_h is exactly
the quadratic form the thresholding scheme linearises.  For a binary u
it equals a sum over the phase cells plus a constant,

    E_h(u) sqrt(h) = sum over {u = 1} of
        g_pv K_h*(1_container - u) + (g_sp - g_sv) K_h*1_substrate
      + sum over the container of g_sv K_h*1_substrate

(times the cell measure), and the same sum weighted by u serves a
multilevel u.  A :class:`RunOperator` holds what E_h needs besides u:
the sampled kernel, the tensions, K_h*1_container, the wetting field
(g_sp - g_sv) K_h*1_substrate and the constant dry-substrate sum.
Three groups of verification routines accompany it:

* :func:`sharp_energy` evaluates the limiting interfacial energy of a
  parametric shape by adaptive quadrature (never from grid gradients);
* :func:`monotonicity_check` compares E at time steps h and N^2 h for
  every (h, N) of a list of each;
* :func:`inequality_suite` evaluates four discrete integral inequalities
  (the shift counts from FFT correlations of the field's level sets,
  summed in Fourier space), so the asserted slack tolerances are pure
  floating-point allowances.

Both suites take a batch of fields on one geometry and all their step
sizes in one call, and compute what does not depend on the loop
variable once: the shift counts of a field serve every h, its transform
serves every kernel of the suite, and E_h of a field is computed once
per distinct step size, however many (h, N) combinations ask for it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .anisotropy import Anisotropy
from .errors import NumericalError
from .expressions import Expression, parse_expression
from .geometry import Geometry
from .grid import TorusGrid, cut_box, on_box, profile
from .kernel import (
    GaussianKernel,
    SampledKernel,
    TriangularKernel,
    _irfftn,
    _rfftn,
    convolve_cells,
    convolve_product,
    scale_kernel,
    scale_kernel_gradient,
    tail_margins,
)
from .tensions import ModifiedTensions

__all__ = [
    "PhaseField",
    "RunOperator",
    "ShapeSpec",
    "EnergyError",
    "approx_energy",
    "sharp_energy",
    "convergence_study",
    "monotonicity_check",
    "inequality_suite",
    "shift_weighted_sum",
    "indicator_defect",
]


class EnergyError(ValueError):
    """Raised for inadmissible phase fields or shape descriptions."""


# ---------------------------------------------------------------------------
# Phase fields
# ---------------------------------------------------------------------------

class PhaseField:
    """A [0,1]-valued field supported on the container.

    ``PhaseField(geometry, values)`` holds the given values.  An
    indicator, built by :meth:`from_box` (or :meth:`from_mask`), holds
    its *cell box* alone: ``cell_box`` is (axes, mask), per axis the
    distinct coordinates of its cells, ascending, and a read-only
    C-order bool array on their product, set at its cells.  The box's C
    order is the grid's cell order, so a gather ``at_cells`` runs over
    the cells in ascending flat order.  ``volume``, ``is_binary``, the
    interface count and E_h read the box; ``values`` is derived on first
    read and then kept.  A field given by its values derives its cell
    box from them in the same way.
    """

    _indicator = False  # built from its cell box: 1 at its cells, 0 elsewhere

    def __init__(self, geometry: Geometry, values: np.ndarray) -> None:
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != geometry.grid.shape:
            raise EnergyError(f"values shape {vals.shape} != grid {geometry.grid.shape}")
        if not (vals.min() >= 0.0 and vals.max() <= 1.0):  # NaN fails both
            raise EnergyError(
                f"phase values must lie in [0,1]; got range "
                f"[{vals.min()}, {vals.max()}]"
            )
        # The substrate mask is the container mask's exact complement, and
        # empty without a substrate.
        if geometry.has_substrate and np.any(vals[geometry.substrate_mask] != 0.0):
            raise EnergyError("phase field must vanish outside the container")
        self.geometry, self.values = geometry, vals

    # -- constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, geometry: Geometry) -> "PhaseField":
        return cls(geometry, np.zeros(geometry.grid.shape))

    @classmethod
    def from_box(cls, geometry: Geometry, box: tuple | None, mask: np.ndarray) -> "PhaseField":
        """The binary field that is 1 where the bool ``mask`` on ``box``
        (per axis ascending coordinates; None: the whole grid) is set; its
        cell box is cut out of ``mask`` (:func:`~ambo.grid.cut_box`)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (geometry.grid.shape if box is None else tuple(map(len, box))):
            raise EnergyError(f"mask shape {mask.shape} does not match its box")
        axes, mask = cut_box(mask, box)
        if geometry.has_substrate and np.any(mask & ~on_box(geometry.omega_mask, axes)):
            raise EnergyError("phase field must vanish outside the container")
        u = object.__new__(cls)
        u.geometry, u.cell_box, u._indicator = geometry, (axes, mask), True
        return u

    @classmethod
    def from_mask(cls, geometry: Geometry, mask: np.ndarray) -> "PhaseField":
        return cls.from_box(geometry, None, mask & geometry.omega_mask)

    @classmethod
    def random(
        cls, geometry: Geometry, rng: np.random.Generator, levels: int
    ) -> "PhaseField":
        """Uniform random values on the container, quantised to ``levels``.

        The values are snapped to {0, 1/(L-1), ..., 1} for L = ``levels``,
        which keeps the number of distinct values small — the layer-cake
        evaluation in :func:`shift_weighted_sum` transforms one set per value.
        """
        if levels < 2:
            raise EnergyError(f"levels must be >= 2, got {levels}")
        vals = rng.uniform(0.0, 1.0, size=geometry.grid.shape)
        vals = np.round(vals * (levels - 1)) / (levels - 1)
        vals[~geometry.omega_mask] = 0.0
        return cls(geometry, vals)

    # -- properties ----------------------------------------------------------
    @property
    def grid(self) -> TorusGrid:
        return self.geometry.grid

    @cached_property
    def values(self) -> np.ndarray:
        """The field on the grid (built from the cell box of an indicator)."""
        axes, mask = self.cell_box
        values = np.zeros(self.grid.shape)
        values[np.ix_(*axes)] = mask
        return values

    @cached_property
    def cell_box(self) -> tuple:
        """(axes, mask) of the cells where u != 0 (see the class docstring)."""
        return cut_box(self.values != 0.0)

    def at_cells(self, a: np.ndarray) -> np.ndarray:
        """The grid array ``a`` at u's cells, in ascending flat order."""
        axes, mask = self.cell_box
        return on_box(a, axes)[mask]

    def weigh(self, a: np.ndarray) -> np.ndarray:
        """``a``, one entry per cell, times u at those cells, in place; an
        indicator's values there are 1, and x * 1.0 == x."""
        if not self._indicator:
            a *= self.at_cells(self.values)
        return a

    def volume(self) -> float:
        if self._indicator:
            # The sum of the values is exactly the cell count.
            return float(np.count_nonzero(self.cell_box[1]) * self.grid.cell_measure)
        return float(self.values.sum() * self.grid.cell_measure)

    def is_binary(self) -> bool:
        if self._indicator:
            return True
        v = self.values
        return bool(np.all((v == 0.0) | (v == 1.0)))

    def interface_cell_count(self) -> int:
        """Cells of {u=1} with at least one zero neighbour (binary u).

        Counted as the cells of {u=1} minus those whose 2d neighbours all
        equal 1, on the cell box of {u=1}.  The neighbours are ANDed in
        through slices of the box, the first and last layer of each axis
        paired periodically, so no shifted copy is made.  Each axis then
        clears the layers whose neighbour across a gap of the box's
        coordinates (or across its ends, unless they meet at the seam)
        is a coordinate off the box, where u is 0, so a box that crosses
        the seam or has gaps counts as the grid does.
        """
        axes, one = self.cell_box if self._indicator else cut_box(self.values == 1.0)
        if not one.size:
            return 0
        interior = one.copy()
        for axis, coords in enumerate(axes):
            lead = (slice(None),) * axis
            for inner, neighbours in _NEIGHBOUR_SLICES:
                interior[lead + (inner,)] &= one[lead + (neighbours,)]
            # Layer i and layer i + 1 (the last and the first) are neighbours
            # on the grid exactly when their coordinates are.
            apart = (np.roll(coords, -1) - coords) % self.grid.n != 1
            interior[lead + (apart | np.roll(apart, 1),)] = False
        return int(np.count_nonzero(one)) - int(np.count_nonzero(interior))


# (cells, their neighbours) along one axis: i - 1 for i >= 1, then the
# last layer for the first; i + 1 for i < n - 1, then the first for the last.
_NEIGHBOUR_SLICES = (
    (slice(1, None), slice(None, -1)),
    (slice(None, 1), slice(-1, None)),
    (slice(None, -1), slice(1, None)),
    (slice(-1, None), slice(None, 1)),
)


# ---------------------------------------------------------------------------
# Approximate energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunOperator:
    """Everything about E_h that stays fixed while the phase changes.

    Built once per (geometry, tensions, sampled kernel): it holds them,
    the convolved container indicator ``k_omega``
    = K_h*1_container, the ``wetting`` field (g_sp - g_sv) K_h*1_substrate
    (None without a substrate), the scalar ``dry_energy`` = the sum of
    g_sv K_h*1_substrate over the container (0 without a substrate), and
    the values of g_pv and of K_h*1_container when they are spatially
    constant (else None).

    A kernel with axis factors on a container that is the product of
    its per-axis extents (a band, the torus) takes both convolutions in
    closed form (:func:`~ambo.kernel.convolve_product`), with no FFT and
    no kernel sample or transform: on the torus K_h*1_container is the
    one value cell * prod_k sum f_k and on a band a scalar times a 1-d
    convolution along x2 (as is K_h*1_substrate), each held as a
    zero-stride broadcast over the grid.  Other containers and kernels
    take FFT convolutions.
    Without a substrate K_h*1_substrate is zero, so it is not convolved.
    ``wetting`` is computed on the profiles of g_sp, g_sv and
    K_h*1_substrate and broadcast to the grid: on a band whose g_sp and
    g_sv are constants, sampled as zero-stride views, it is the
    zero-stride broadcast of its x2 profile.  The arrays are read-only.

    The step boxes of :mod:`ambo.scheme` exist only where both
    convolutions are in closed form: they read ``margins``, one per axis
    (None for a kernel without factors or a container that is no
    product, a disk: every step uses the whole grid), and ``floor``, a
    lower bound on the comparison field at every container cell off a
    step box, computed on first read from the fields' profiles on the
    extent box.
    """

    geometry: Geometry
    tensions: ModifiedTensions
    kh: SampledKernel
    k_omega: np.ndarray
    wetting: np.ndarray | None
    dry_energy: float
    pv_constant: float | None
    omega_constant: float | None
    margins: tuple | None

    @classmethod
    def build(
        cls, geometry: Geometry, tensions: ModifiedTensions, kh: SampledKernel
    ) -> "RunOperator":
        if not (geometry.grid == tensions.grid == kh.grid):
            raise EnergyError("geometry, tensions and kernel use different grids")
        closed = kh.factors is not None and geometry.fills_extent
        if closed:
            extent = geometry.extent
            k_omega = convolve_product(kh, extent)
            # The substrate, the complement of E_1 x ... x E_d, is the
            # disjoint union of the slabs E_1 x ... x E_{k-1} x (not E_k)
            # x T x ... x T over the axes k that E_k does not fill.
            slabs = [
                extent[:k] + (~mask,) + (np.ones_like(mask),) * (len(extent) - k - 1)
                for k, mask in enumerate(extent)
                if not mask.all()
            ]
            k_substrate = sum(convolve_product(kh, slab) for slab in slabs)
        else:
            k_omega = kh.convolve(geometry.omega_mask.astype(np.float64))
            if geometry.has_substrate:
                k_substrate = kh.convolve(geometry.substrate_mask.astype(np.float64))
        wetting, dry_energy = None, 0.0
        if geometry.has_substrate:
            # On their profiles: constant g_sp and g_sv times a band's x2
            # profile of K_h*1_substrate stay a profile.  The mask gathers
            # from the broadcast in C order, as from the grid.
            sp, sv = profile(tensions.sp), profile(tensions.sv)
            wetting = np.broadcast_to((sp - sv) * k_substrate, geometry.grid.shape)
            dry_energy = float(
                np.broadcast_to(sv * k_substrate, geometry.grid.shape)[geometry.omega_mask].sum()
            )
        pv = tensions.pv
        pv_constant = float(pv.flat[0]) if np.ptp(pv) == 0.0 else None
        omega_constant = float(k_omega.flat[0]) if np.ptp(k_omega) == 0.0 else None
        # A read-only view: on_box slices it before it gathers, so a step
        # reads no more than its box of a band's x2 profile.
        k_omega = np.broadcast_to(k_omega, geometry.grid.shape)
        tails = tail_margins(kh) if closed else None
        return cls(
            geometry, tensions, kh, k_omega, wetting, dry_energy, pv_constant,
            omega_constant, None if tails is None else tails[0],
        )

    @cached_property
    def floor(self) -> float:
        """A lower bound on phi at every container cell off a step box.

        K_h*u and K_h*(g_pv u) are at most U and g_pv,max U there
        (:func:`~ambo.kernel.tail_margins`), so phi is at least the
        minimum over the container of g_pv K_h*1_container + wetting,
        less 2 g_pv,max U and a rounding slack; -inf without margins.
        """
        if self.margins is None:
            return -math.inf
        # Margins exist only where the container is its extent box; the
        # fields are read on their profiles, and min and max are exact
        # in any order.
        box = tuple(np.flatnonzero(mask) for mask in self.geometry.extent)
        pv = pv_max = self.pv_constant
        if pv is None:
            pv, pv_max = profile(self.tensions.pv, box), float(self.tensions.pv.max())
        wetting = self.wetting
        base = pv * profile(self.k_omega, box)
        if wetting is not None:
            base = base + profile(wetting, box)
        lowest = float(base.min())
        # phi sums terms of at most g_pv,max (K_h*1_container <= 1) and
        # |wetting|; 1e-12 of their size, thousands of ulps, covers their
        # rounding and that of the K_h*u they are given (<= 4e-15).
        scale = pv_max + (0.0 if wetting is None else float(np.abs(profile(wetting)).max()))
        return lowest - 2.0 * pv_max * tail_margins(self.kh)[1] - 1e-12 * scale

    @cached_property
    def autocorrelations(self) -> tuple:
        """Per axis, the periodic autocorrelation of the kernel's factor
        where the container fills the axis, else None: the circulant Gram
        matrices of :func:`~ambo.kernel.convolved_square_sum`, computed on
        first read and then kept for the run (closed form only)."""
        return tuple(
            np.correlate(np.concatenate([f, f]), f, "valid")[: f.size] if e.all() else None
            for f, e in zip(self.kh.factors, self.geometry.extent)
        )

    @property
    def grid(self) -> TorusGrid:
        return self.kh.grid


def approx_energy(u: PhaseField, op: RunOperator, ku: np.ndarray) -> float:
    """Evaluate E_h(u); always nonnegative.

    ``ku`` is K_h*u, on the grid or at u's cells (one value per cell, in
    ascending flat order, as :meth:`PhaseField.at_cells` reads them).
    One formula serves binary and multilevel fields:

        E_h(u) sqrt(h) / cell = sum over the cells of u of
            u (g_pv (K_h*1_container - K_h*u) + wetting) + dry_energy,

    gathered over u's cell box only, so a step pays for the phase cells
    and not for the grid.  The sum is numpy's pairwise ``sum``, which
    does not depend on the number of BLAS threads.
    """
    if u.grid != op.grid:
        raise EnergyError("phase field and operator use different grids")
    if ku.ndim > 1:
        ku = u.at_cells(ku)
    pv = op.pv_constant
    if pv is None:
        pv = u.at_cells(op.tensions.pv)
    k_omega = op.omega_constant
    if k_omega is None:
        k_omega = u.at_cells(op.k_omega)
    density = k_omega - ku
    density *= pv
    if op.wetting is not None:
        density += u.at_cells(op.wetting)
    total = u.weigh(density).sum() + op.dry_energy
    return float(total * op.grid.cell_measure / math.sqrt(op.kh.h))


# ---------------------------------------------------------------------------
# Sharp energy of parametric shapes
# ---------------------------------------------------------------------------

class Arc:
    """A smooth parametric boundary piece, traversed with the phase on
    its left (so the outward normal is the tangent rotated clockwise)."""

    def point(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def velocity(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray([0.0, 1.0])
        pts = self.point(t)
        return pts[0], pts[1]


@dataclass(frozen=True)
class CircleArc(Arc):
    center: tuple
    radius: float
    angle0: float = 0.0
    angle1: float = 2.0 * math.pi

    def point(self, t):
        a = self.angle0 + (self.angle1 - self.angle0) * np.asarray(t)
        c = np.asarray(self.center)
        return c + self.radius * np.stack([np.cos(a), np.sin(a)], axis=-1)

    def velocity(self, t):
        a = self.angle0 + (self.angle1 - self.angle0) * np.asarray(t)
        da = self.angle1 - self.angle0
        return self.radius * da * np.stack([-np.sin(a), np.cos(a)], axis=-1)


@dataclass(frozen=True)
class Segment(Arc):
    start: tuple
    end: tuple

    def point(self, t):
        p0, p1 = np.asarray(self.start), np.asarray(self.end)
        t = np.asarray(t)[..., None]
        return p0 + t * (p1 - p0)

    def velocity(self, t):
        p0, p1 = np.asarray(self.start), np.asarray(self.end)
        return np.broadcast_to(p1 - p0, np.asarray(t).shape + (2,)).copy()


@dataclass(frozen=True)
class ShapeSpec:
    """Parametric description of a phase region for sharp-energy quadrature.

    ``free`` arcs form the particle-vapor boundary; ``wetted`` arcs lie
    on the container boundary under the particle; ``dry`` arcs are the
    rest of the container boundary.  The free chain must close up to the
    contact points (validated).
    """

    free: tuple
    wetted: tuple = ()
    dry: tuple = ()

    def __post_init__(self) -> None:
        if not self.free:
            raise EnergyError("a shape needs at least one free arc")
        chain = list(self.free) + list(self.wetted)
        starts = [arc.endpoints()[0] for arc in chain]
        ends = [arc.endpoints()[1] for arc in chain]
        # Each arc's end must be some arc's start (closed loop through
        # contact points); greedy matching with a 1e-9 gap tolerance.
        for e in ends:
            gaps = [float(np.linalg.norm(e - s)) for s in starts]
            if min(gaps) > 1e-9:
                raise EnergyError(
                    f"boundary is not closed: arc endpoint {e} is not matched "
                    f"(smallest gap {min(gaps):.2e})"
                )

    # -- common constructions ------------------------------------------------
    @classmethod
    def disk(cls, center, radius: float) -> "ShapeSpec":
        return cls(free=(CircleArc(tuple(center), radius),))

    @classmethod
    def cap(
        cls,
        contact_angle_deg: float,
        radius: float,
        substrate_y: float,
        center_x: float = 0.5,
        dry_span: tuple | None = None,
    ) -> "ShapeSpec":
        """Circular cap standing on the horizontal line y = substrate_y.

        The interior contact angle fixes the circle centre at height
        ``substrate_y - radius*cos(theta)``; the free arc runs counter-
        clockwise from the right contact point to the left one.
        """
        theta = math.radians(contact_angle_deg)
        if not 0.0 < theta < math.pi:
            raise EnergyError("contact angle must be strictly between 0 and 180")
        yc = substrate_y - radius * math.cos(theta)
        # Contact points subtend angles -+(pi/2 - (pi/2 - theta)) about the
        # centre: the radial direction at the right contact is
        # (sin(theta), cos(theta)).
        a_right = math.atan2(math.cos(theta), math.sin(theta))
        a_left = math.pi - a_right
        free = CircleArc((center_x, yc), radius, a_right, a_left)
        right = free.point(np.asarray(0.0))
        left = free.point(np.asarray(1.0))
        wetted = Segment(tuple(left), tuple(right))
        dry_arcs = ()
        if dry_span is not None:
            dry_arcs = (
                Segment((dry_span[0], substrate_y), tuple(left)),
                Segment(tuple(right), (dry_span[1], substrate_y)),
            )
        return cls(free=(free,), wetted=(wetted,), dry=dry_arcs)

    # -- rasterisation --------------------------------------------------------
    def indicator(self, geometry: Geometry) -> PhaseField:
        """Binary phase field of the enclosed region (built-in specs only).

        The distances are evaluated on the box of cells whose torus
        offset from the centre is below the radius along every axis (at
        both ends of an axis that the disk crosses the seam of): a cell
        off that box is at least the radius away, so the mask is the
        full grid's, cell for cell.
        """
        arc = self.free[0]
        if not isinstance(arc, CircleArc):
            raise EnergyError(f"no indicator rule for arc type {type(arc).__name__}")
        grid = geometry.grid
        center = np.asarray(arc.center, dtype=float)
        coords = grid.axis_coords()
        box = [
            np.flatnonzero(np.abs(grid.wrap_delta(coords - c)) < arc.radius)
            for c in center
        ]
        pts = np.stack(np.meshgrid(*[coords[i] for i in box], indexing="ij"), axis=-1)
        inside = grid.torus_distance(pts, center) < arc.radius
        if self.wetted:
            # a cap: the disk cut at the substrate line under the wetted segment
            inside &= pts[..., 1] >= float(np.asarray(self.wetted[0].start)[1])
        mask = np.zeros(grid.shape, dtype=bool)
        mask[np.ix_(*box)] = inside
        return PhaseField.from_mask(geometry, mask)


def _adaptive_arc_quadrature(func, arc: Arc):
    """Composite Simpson on the arc parameter with panel doubling.

    ``func(points, normals)`` returns the scalar line density; the
    outward normal is the unit tangent rotated clockwise.  Raises if 2^20
    panels do not reach a relative tolerance of 1e-8.
    """

    def evaluate(m: int) -> float:
        t = np.linspace(0.0, 1.0, 2 * m + 1)
        pts = arc.point(t)
        vel = arc.velocity(t)
        speed = np.linalg.norm(vel, axis=-1)
        if np.any(speed == 0.0):
            raise EnergyError("arc has a stationary point; reparameterise")
        tangent = vel / speed[:, None]
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1)
        density = func(pts, normal) * speed
        weights = np.ones(2 * m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float((weights * density).sum() / (6.0 * m))

    m = 8
    prev = evaluate(m)
    while m <= 1 << 20:
        m *= 2
        cur = evaluate(m)
        err = abs(cur - prev)
        if err <= 1e-8 * max(abs(cur), 1e-300) + 1e-15:
            return cur
        prev = cur
    raise NumericalError(
        f"arc quadrature did not reach rel tol 1e-8 (last err {err:.3e})"
    )


def sharp_energy(
    shape: ShapeSpec,
    gamma_pv,
    gamma: Anisotropy,
    *,
    gamma_sp=None,
    gamma_sv=None,
) -> float:
    """Limiting interfacial energy of a parametric shape (d=2).

    integral over the free boundary of g_pv(x) gamma(normal)
    + integral of g_sp over the wetted arcs
    + integral of g_sv over the dry arcs.

    Each density is a number or an expression string; ``gamma_sp`` and
    ``gamma_sv`` are needed only when wetted or dry arcs are present.
    """
    pv_expr = parse_expression(gamma_pv)
    sp_expr = parse_expression(gamma_sp) if gamma_sp is not None else None
    sv_expr = parse_expression(gamma_sv) if gamma_sv is not None else None

    def eval_expr(expr: Expression, pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(expr((pts[:, 0], pts[:, 1])), dtype=np.float64),
            pts.shape[:1],
        )

    total = 0.0
    for arc in shape.free:
        total += _adaptive_arc_quadrature(
            lambda p, n: eval_expr(pv_expr, p) * gamma(n), arc
        )
    for arcs, expr, name in (
        (shape.wetted, sp_expr, "gamma_sp"),
        (shape.dry, sv_expr, "gamma_sv"),
    ):
        if arcs and expr is None:
            raise EnergyError(f"shape has substrate arcs but no {name} given")
        for arc in arcs:
            total += _adaptive_arc_quadrature(lambda p, n: eval_expr(expr, p), arc)
    return total


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

@dataclass
class StudyRow:
    h: float
    approx: float
    sharp: float
    rel_err: float


@dataclass
class StudyTable:
    rows: list
    order: float | None

    def as_rows(self):
        return [(r.h, r.approx, r.sharp, r.rel_err) for r in self.rows]


def convergence_study(
    shape: ShapeSpec,
    tensions: ModifiedTensions,
    kernel: GaussianKernel,
    h_seq,
    geometry: Geometry,
    gamma: Anisotropy,
) -> StudyTable:
    """Tabulate E_h against the sharp energy over a decreasing h sequence.

    Entries with sqrt(h) < 3 * spacing are dropped with a warning; the
    remaining errors must decrease monotonically (else an error is
    raised) and an empirical order is fitted from the log-log slope
    (None for a single h).
    """
    grid = geometry.grid
    h_list = [float(h) for h in h_seq]
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise EnergyError("h sequence must be strictly decreasing")
    usable = []
    for h in h_list:
        if math.sqrt(h) < 3.0 * grid.spacing:
            warnings.warn(
                f"dropping under-resolved study entry h={h:.3g} "
                f"(sqrt(h) < 3 spacings)",
                stacklevel=2,
            )
        else:
            usable.append(h)
    if not usable:
        raise EnergyError("need at least one resolvable h value")

    u = shape.indicator(geometry)
    # K_h*u on u's box, read at its cells: as in a flow step, no FFT with factors
    axes, mask = u.cell_box
    sharp = sharp_energy(shape, float(tensions.pv.flat[0]), gamma)
    rows = []
    for h in usable:
        kh = scale_kernel(kernel, grid, h)
        ku = convolve_cells(kh, u.cell_box, 1.0, axes)[mask]
        eh = approx_energy(u, RunOperator.build(geometry, tensions, kh), ku)
        rows.append(StudyRow(h=h, approx=eh, sharp=sharp,
                             rel_err=abs(eh - sharp) / abs(sharp)))
    errs = [r.rel_err for r in rows]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        raise NumericalError(
            f"convergence study error not decreasing: {errs}"
        )
    if len(rows) == 1:
        return StudyTable(rows=rows, order=None)
    logs = np.polyfit(np.log([r.h for r in rows]), np.log(errs), 1)
    return StudyTable(rows=rows, order=float(logs[0]))


# ---------------------------------------------------------------------------
# Approximate monotonicity
# ---------------------------------------------------------------------------

def _shared_geometry(fields) -> Geometry:
    """The one geometry every field of a batch lives on."""
    if not fields:
        raise EnergyError("a suite needs at least one field")
    geometry = fields[0].geometry
    if any(u.geometry is not geometry for u in fields):
        raise EnergyError("the fields of one suite call must share one geometry")
    return geometry


@dataclass
class MonotonicityResult:
    lhs: float
    rhs: float
    c_est: float


def monotonicity_check(
    fields,
    tensions: ModifiedTensions,
    kernel: GaussianKernel,
    h_values,
    factors,
) -> list[list[MonotonicityResult]]:
    """Compare E_{N^2 h}(u) against (1 + c N sqrt(h)) E_h(u) for every (h, N).

    h runs over ``h_values`` and N over ``factors``.  Returns one list
    per (h, N), h-major, holding one result per field (the fields must
    live on one geometry): the two energies and ``c_est``, the smallest
    nonnegative constant making the bound hold (0 when the energy
    already decreased).  For spatially constant tensions
    the bound must hold with c = 0 up to 1e-10 relative — a genuine
    assertion of the discrete theory, raised at the first (h, N, field)
    that misses it.

    The combinations share step sizes (h N^2 of one may be h' of
    another), and E at one step size does not depend on the combination
    asking for it.  So the kernel and run operator of each distinct step
    size are built once, one at a time, and each field's energy at it
    is computed once, from the field's one transform.
    """
    for N in factors:
        if not (isinstance(N, (int, np.integer)) and N >= 1):
            raise EnergyError(f"N must be an integer >= 1, got {N!r}")
    geometry = _shared_geometry(fields)
    combos = [(h, N) for h in h_values for N in factors]
    steps = dict.fromkeys(step for h, N in combos for step in (h, N * N * h))
    spectra = [_rfftn(u.values) for u in fields]
    energy = {s: _energies(fields, spectra, geometry, tensions, kernel, s) for s in steps}
    results = []
    for h, N in combos:
        per_field = []
        for rhs, lhs in zip(energy[h], energy[N * N * h]):
            if rhs > 0.0:
                c_est = max(0.0, (lhs - rhs) / (rhs * N * math.sqrt(h)))
            else:
                c_est = 0.0 if lhs <= 0.0 else math.inf
            if tensions.is_spatially_constant and lhs > rhs * (1.0 + 1e-10):
                raise NumericalError(
                    f"constant-tension monotonicity violated: E_(N^2 h)={lhs!r} > "
                    f"E_h={rhs!r} * (1+1e-10) at N={N}, h={h}"
                )
            per_field.append(MonotonicityResult(lhs=lhs, rhs=rhs, c_est=c_est))
        results.append(per_field)
    return results


def _energies(fields, spectra, geometry, tensions, kernel, h) -> list[float]:
    """E_h of each field from its transform (kept), by one run operator."""
    op = RunOperator.build(geometry, tensions, scale_kernel(kernel, geometry.grid, h))
    return [approx_energy(u, op, op.kh.apply(s.copy())) for u, s in zip(fields, spectra)]


# ---------------------------------------------------------------------------
# The four useful inequalities
# ---------------------------------------------------------------------------

def shift_weighted_sum(fields, weights) -> list[list[float]]:
    """sum_y W(y) sum_{x in container} |u(x+y) - u(x)|, to rounding, for a batch.

    Returns one list per field of ``fields`` (which share one geometry),
    holding one sum per array W of ``weights`` (indexed like the sampled
    kernels, origin at 0).  Uses the layer-cake formula over the distinct
    values of u (at most 256), u = u_min + sum_l dt_l chi_l with the
    superlevel sets chi_l.  Each lies in the container, because u
    vanishes outside it, so

        sum_{x in container} |chi(x+y) - chi(x)|
            = |chi| + sum_x (1_container - 2 chi)(x) chi(x+y),

    a cross-correlation.  Its dt_l-weighted sum over the levels has the
    transform conj(omega^) (u - u_min)^ - 2 sum_l dt_l |chi_l^|^2: one
    forward transform per level and one inverse per field, and the
    summed counts serve every W; omega^ serves every field.
    """
    geometry = _shared_geometry(fields)
    omega_hat = np.conj(_rfftn(geometry.omega_mask.astype(np.float64)))
    sums = []
    for u in fields:
        v = u.values
        ordered = np.sort(v, axis=None)
        levels = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        if levels.size > 256:
            raise EnergyError(
                f"field has {levels.size} distinct values; quantise it (<= 256) "
                "for the layer-cake shift sums"
            )
        power, size = np.zeros(omega_hat.shape), 0.0
        for low, level in zip(levels[:-1], levels[1:]):
            chi = v >= level
            chi_hat = _rfftn(chi.astype(np.float64))
            power += (level - low) * (chi_hat.real**2 + chi_hat.imag**2)
            size += (level - low) * np.count_nonzero(chi)
        spectrum = _rfftn(v - levels[0]) * omega_hat
        spectrum.real -= 2.0 * power
        counts = _irfftn(spectrum, v.shape) + size
        sums.append([float((w * counts).sum()) for w in weights])
    return sums


@dataclass
class InequalityResult:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def ok(self) -> bool:
        """lhs <= rhs up to 1e-8 relative to max(|lhs|, |rhs|, 1)."""
        scale = max(abs(self.lhs), abs(self.rhs), 1.0)
        return self.lhs <= self.rhs + 1e-8 * scale


@dataclass
class InequalityReport:
    results: list
    h: float


# The tent kernel J of the fourth inequality, radius 1.
_TENT = TriangularKernel()


def inequality_suite(fields, kernel: GaussianKernel, h_values) -> list[list[InequalityReport]]:
    """Evaluate the four integral inequalities for [0,1] fields.

    The first three use the supplied kernel; the fourth uses the unit
    tent kernel J with gradient bound |grad J| <= (2/radius) J(./2),
    giving the provable discrete constant c = 2^d * (2/radius) relating
    grad(J_h) to J_{4h}.  All four hold exactly in exact arithmetic for
    fields vanishing outside the container, because the substrate
    indicator is the exact complement of the container's; a result is ok
    when lhs <= rhs up to 1e-8 relative.

    Returns one list per h of ``h_values``, in order, holding one report
    per field (the fields must live on one geometry).  For each h, K_h,
    K_h*1_substrate, the tent-gradient kernels and J_4h are sampled once
    and shared by the fields; one transform of the substrate mask serves
    K_h*1_substrate of every h, and for each (h, field) one transform of
    the field serves K_h*v and the d tent-gradient convolutions.  The
    shift counts of a field do not depend on h, so one
    :func:`shift_weighted_sum` call weights them with K_h and J_4h of
    every h at once.
    """
    geo = _shared_geometry(fields)
    grid = geo.grid
    s_d = grid.cell_measure
    inside = geo.omega_mask
    omega = inside.astype(np.float64)
    substrate = _rfftn(geo.substrate_mask.astype(np.float64))
    c_grad = (2.0**grid.d) * (2.0 / _TENT.radius)
    kernels = [scale_kernel(kernel, grid, h) for h in h_values]
    weights = []
    for h, kh in zip(h_values, kernels):
        weights += [kh.values, scale_kernel(_TENT, grid, 4.0 * h).values]
    shift_sums = shift_weighted_sum(fields, weights)

    reports = []
    for i, (h, kh) in enumerate(zip(h_values, kernels)):
        conv_s = kh.apply(substrate.copy())
        grad_jh = scale_kernel_gradient(_TENT, grid, h)
        grad_kernels = [SampledKernel(grid, h, grad_jh[..., a]) for a in range(grid.d)]
        per_field = []
        for u, sums in zip(fields, shift_sums):
            sum_k, sum_j = sums[2 * i], sums[2 * i + 1]
            v = u.values
            spectrum = _rfftn(v)
            conv_v = kh.apply(spectrum.copy())
            shift_k = s_d * s_d * sum_k
            # sum over the container of (1_container - v) K_h*v
            cross = ((omega - v) * conv_v)[inside].sum()

            lhs1 = shift_k
            rhs1 = float(2.0 * s_d * cross + s_d * ((v * conv_s)[inside]).sum())

            lhs2 = float(s_d * np.abs(conv_v - v)[inside].sum())
            rhs2 = shift_k

            lhs3 = float(s_d * (v * (omega - v))[inside].sum())
            rhs3 = float(s_d * cross) + lhs2

            squares = sum(np.square(g.apply(spectrum.copy())) for g in grad_kernels)
            lhs4 = float(s_d * np.sqrt(squares)[inside].sum())
            rhs4 = c_grad / math.sqrt(h) * s_d * s_d * sum_j

            results = [
                InequalityResult("shift-bound", lhs1, rhs1),
                InequalityResult("jensen", lhs2, rhs2),
                InequalityResult("defect-bound", lhs3, rhs3),
                InequalityResult("gradient-bound", lhs4, rhs4),
            ]
            per_field.append(InequalityReport(results=results, h=h))
        reports.append(per_field)
    return reports


def indicator_defect(w: np.ndarray, geometry: Geometry) -> float:
    """The two-phase defect integral, cell times the sum over the
    container of w (1 - w), of a convolved field w = K_h*u on the grid.

    A run with step boxes takes each state's defect in closed form
    instead, with no w off the box (:func:`~ambo.scheme.step`).
    """
    omega = geometry.omega_on(None)
    if omega is not None:
        w = w[omega]
    d = 1.0 - w
    d *= w  # w (1 - w) in one temporary: the product commutes exactly
    return float(d.sum() * geometry.grid.cell_measure)
