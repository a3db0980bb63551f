"""Torus-wide extension of the three surface tensions.

The raw data are a particle-vapor tension ``gamma_pv`` defined on the
closed container and substrate-particle / substrate-vapor tensions
``gamma_sp``, ``gamma_sv`` defined on the container boundary.  The
convolution energy needs all three defined on the whole torus, bounded,
Lipschitz and satisfying pointwise triangle inequalities.  The
construction:

* ``gamma_pv`` is kept on the container and extended discretely
  harmonically outside, with Dirichlet data ``gamma_pv`` on the boundary
  layer and ``min gamma_pv`` on the torus seam cells;
* the substrate tensions are divided by gamma_K of the container normal
  on the boundary layer, where gamma_K is the anisotropy the kernel
  induces, so that the thresholding energy weights the wall correctly;
  they are transported through thin strips on both sides of the
  boundary as ratios ``g_sp / g_delta`` of two harmonic strip solutions,
  and set to the constant ``C_gamma * C_pv / (2 c_gamma)`` everywhere
  else (c_gamma, C_gamma are the bounds of gamma_K).

Strict triangle inequalities between the strip solutions are checked a
posteriori; if they fail the strip width is halved and the solves are
repeated (the construction only guarantees that *some* small width
works).

All boundary value problems use the cell-centered 5-point (d=2) /
7-point (d=3) Laplacian, whose discrete maximum principle the
construction's inequalities rely on, solved by conjugate gradients in
numpy.  The Laplacian is applied matrix-free: each solve gathers the
indices of the 2d neighbours of every unknown cell once, and every
iteration reads the iterate at them.  When the unknown cells fill at
least a quarter of the grid, as the exterior of a container does, CG is
preconditioned by the inverse of the periodic Laplacian plus a small
shift, applied by FFT: it cuts the exterior solve from hundreds of
iterations to tens.  A thin region, as each strip is, converges in few
plain iterations, each far cheaper than a full-grid FFT pair, so it is
solved unpreconditioned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .anisotropy import Anisotropy
from .errors import NumericalError
from .expressions import Expression, parse_expression
from .geometry import Geometry, band_mask, boundary_layer_mask
from .grid import TorusGrid

__all__ = [
    "RawTensions",
    "ModifiedTensions",
    "TensionError",
    "laplace_solve",
    "extend_pv",
    "extend_substrate",
    "validate_raw_tensions",
    "verify_triangle",
]


class TensionError(ValueError):
    """Raised for inadmissible tension data or ill-posed extension problems."""


@dataclass(frozen=True)
class RawTensions:
    """Analytic tension data: particle-vapor on the container, substrate
    tensions on its boundary."""

    gamma_pv: Expression
    gamma_sp: Expression
    gamma_sv: Expression

    @classmethod
    def from_values(cls, pv, sp, sv) -> "RawTensions":
        return cls(
            gamma_pv=parse_expression(pv),
            gamma_sp=parse_expression(sp),
            gamma_sv=parse_expression(sv),
        )

    def sample(self, which: str, grid: TorusGrid) -> np.ndarray:
        """Sample one expression at every cell centre.

        An expression that reads no coordinate comes back as a read-only
        zero-stride view of its value, which holds no per-cell memory; one
        that reads a coordinate, as a full writable array.  Callers copy
        before they write.
        """
        expr = getattr(self, f"gamma_{which}")
        if expr.max_coordinate > grid.d:
            raise TensionError(
                f"gamma_{which} uses x{expr.max_coordinate} on a {grid.d}-d grid"
            )
        if expr.max_coordinate == 0:
            return np.broadcast_to(np.float64(expr(())), grid.shape)
        return np.asarray(expr(tuple(grid.meshgrid())), dtype=np.float64)


def validate_raw_tensions(
    raw: RawTensions, geometry: Geometry, gamma: Anisotropy
) -> None:
    """Check positivity, substrate bounds and strict triangle inequalities.

    The strict inequalities are required at every boundary-layer sample:

        C_gamma * g_pv < g_sp + g_sv,
        g_sp < c_gamma * g_pv + g_sv,
        g_sv < c_gamma * g_pv + g_sp.

    Raises :class:`TensionError` naming every check that fails.
    """
    grid = geometry.grid
    failures: list[str] = []
    layer = boundary_layer_mask(geometry)
    if not layer.any():
        raise TensionError("geometry has no boundary layer to validate on")

    pv = raw.sample("pv", grid)
    sp_ = raw.sample("sp", grid)
    sv = raw.sample("sv", grid)
    closure = geometry.omega_mask | layer

    if np.any(pv[closure] <= 0.0):
        failures.append("gamma_pv must be positive on the closed container")
    sp_b, sv_b, pv_b = sp_[layer], sv[layer], pv[layer]
    if np.any(sp_b <= 0.0) or np.any(sv_b <= 0.0):
        failures.append("substrate tensions must be positive on the boundary")

    slacks = _strict_slack(pv_b, sp_b, sv_b, *gamma.bounds())
    min_slack = float(slacks.min())
    if not min_slack > 0.0:
        failures.append(
            f"strict triangle inequalities fail at {int((slacks <= 0).sum())} "
            f"boundary samples (worst slack {min_slack:.3e})"
        )

    if failures:
        raise TensionError(
            "raw tensions are not admissible: " + "; ".join(failures)
        )


def _strict_slack(pv, sp, sv, c_g: float, C_g: float) -> np.ndarray:
    """Smallest slack of the three strict triangle inequalities, per sample."""
    return np.minimum.reduce(
        [sp + sv - C_g * pv, c_g * pv + sv - sp, c_g * pv + sp - sv]
    )


# ---------------------------------------------------------------------------
# Discrete Dirichlet problems
# ---------------------------------------------------------------------------

# CG is preconditioned by the FFT inverse of the periodic Laplacian only
# when the unknowns fill at least this share of the grid: every
# preconditioned iteration pays one full-grid FFT pair, which a thin
# region's few plain iterations undercut.  Plain -> preconditioned at
# n = 256 on 2 vCPUs (min of 5): the extend_disk exterior (70% of the
# grid) 588 -> 56 iterations, 420 -> 138 ms; its six strips (5% each)
# 6-11 -> 40-64 ms each.  Annuli and straight strips break even between
# 20% and 30% of the grid at n = 256, between 30% and 50% at n = 128.
_PRECONDITIONED_SHARE = 0.25
# Shift that makes the periodic Laplacian invertible.  On the extend_disk
# exterior 1e-4 and 1e-3 take 56 iterations, 1e-2 70 and 1e-1 111.
_PRECONDITIONER_SHIFT = 1e-3


def _torus_laplace_inverse(grid: TorusGrid, unknown_mask: np.ndarray):
    """The preconditioner r -> (L + shift)^-1 r on the unknown cells.

    L is the periodic 2d+1-point Laplacian of the whole torus, inverted
    by one FFT pair; r is extended by zero and the result restricted to
    the unknowns, so the operator is symmetric positive definite as CG
    needs (a fast Poisson solver as preconditioner: Concus & Golub, SIAM
    J. Numer. Anal. 1973).
    """
    from .kernel import _irfftn, _rfftn

    n = grid.n
    symbol = np.full((n,) * (grid.d - 1) + (n // 2 + 1,), _PRECONDITIONER_SHIFT)
    for axis, size in enumerate(symbol.shape):
        k = np.arange(size).reshape((-1,) + (1,) * (grid.d - 1 - axis))
        symbol += 2.0 - 2.0 * np.cos(2.0 * math.pi * k / n)
    inverse = 1.0 / symbol
    cells = np.flatnonzero(unknown_mask)
    full = np.zeros(grid.cell_count)

    def apply(r: np.ndarray) -> np.ndarray:
        full[cells] = r
        spectrum = _rfftn(full.reshape(grid.shape))
        spectrum *= inverse
        return _irfftn(spectrum, grid.shape).reshape(-1)[cells]

    return apply


def _conjugate_gradients(apply, rhs, precondition, atol: float, maxiter: int):
    """Preconditioned CG (Hestenes & Stiefel 1952) for apply(x) = rhs from
    x = 0 until the updated residual's 2-norm is below ``atol``: the
    iterate and the iterations taken (None if maxiter fell short).  The
    inner products are einsum loops, not BLAS, whose two-thread runs are
    now and then several times slower for a whole process."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    for iteration in range(maxiter):
        if math.sqrt(np.einsum("i,i->", r, r)) < atol:
            return x, iteration
        z = r if precondition is None else precondition(r)
        rho = np.einsum("i,i->", r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = apply(p)
        alpha = rho / np.einsum("i,i->", p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, None


def laplace_solve(
    grid: TorusGrid,
    unknown_mask: np.ndarray,
    dirichlet_values: np.ndarray,
) -> np.ndarray:
    """Solve the discrete Laplace equation on ``unknown_mask`` cells.

    Cells outside the mask are Dirichlet cells carrying
    ``dirichlet_values``; the 2d+1-point Laplacian vanishes on every
    unknown cell.  Returns the full-grid solution array.  The system is
    symmetric positive definite and solved with conjugate gradients,
    preconditioned as the module docstring says, to a residual
    infinity-norm below ``1e-10 * (range of referenced data)``
    plus a floating-point floor ``~eps * |A| * |x|`` (without the floor,
    constant data — range zero — would demand an unattainable residual);
    the discrete maximum principle is asserted (1e-8 slack).
    """
    unknown_mask = np.asarray(unknown_mask, dtype=bool)
    if unknown_mask.shape != grid.shape:
        raise TensionError("unknown_mask shape does not match grid")
    values = np.array(dirichlet_values, dtype=np.float64)
    if values.shape != grid.shape:
        raise TensionError("dirichlet_values shape does not match grid")

    n_unknown = int(unknown_mask.sum())
    if n_unknown == 0:
        return values
    # A connected component of the unknowns other than the whole torus
    # has a neighbour outside itself, which is a Dirichlet cell; so the
    # problem is singular exactly when every cell is unknown.
    if n_unknown == grid.cell_count:
        raise TensionError(
            "the unknown region is the whole torus and touches no Dirichlet "
            "cell; the problem is singular"
        )

    index = np.full(grid.shape, -1, dtype=np.intp)
    index[unknown_mask] = np.arange(n_unknown)

    # The 2d neighbours of each unknown cell, as its unknown index or, for
    # a Dirichlet cell, n_unknown, which reads the zero appended to x.
    neighbours = np.empty((2 * grid.d, n_unknown), dtype=np.intp)
    rhs = np.zeros(n_unknown)
    ref_min, ref_max = math.inf, -math.inf
    for k, (axis, shift) in enumerate(itertools.product(range(grid.d), (1, -1))):
        nb_index = np.roll(index, shift, axis=axis)[unknown_mask]
        known = nb_index < 0
        neighbours[k] = np.where(known, n_unknown, nb_index)
        if known.any():
            rhs_vals = np.roll(values, shift, axis=axis)[unknown_mask][known]
            rhs[known] += rhs_vals
            ref_min = min(ref_min, float(rhs_vals.min()))
            ref_max = max(ref_max, float(rhs_vals.max()))

    two_d = 2 * grid.d
    padded = np.zeros(n_unknown + 1)

    def laplacian(x: np.ndarray) -> np.ndarray:
        padded[:-1] = x
        return two_d * x - padded[neighbours].sum(axis=0)

    data_range = ref_max - ref_min
    scale = max(abs(ref_min), abs(ref_max), 1e-30)
    eps = float(np.finfo(np.float64).eps)
    floor = 64.0 * eps * grid.d * scale * math.sqrt(n_unknown)
    tol = 1e-10 * data_range + floor
    maxiter = 20 * grid.n + 200
    precondition = None
    if n_unknown >= _PRECONDITIONED_SHARE * grid.cell_count:
        precondition = _torus_laplace_inverse(grid, unknown_mask)
    solution, iterations = _conjugate_gradients(
        laplacian, rhs, precondition, tol, maxiter
    )
    residual = float(np.abs(laplacian(solution) - rhs).max())
    if iterations is None or residual > tol:
        raise NumericalError(
            f"Dirichlet solve did not converge: residual {residual:.3e} "
            f"(tolerance {tol:.3e}, {maxiter} CG iterations allowed)"
        )

    slack = 1e-8 * max(1.0, data_range, abs(ref_min), abs(ref_max))
    if solution.min() < ref_min - slack or solution.max() > ref_max + slack:
        raise NumericalError(
            "discrete maximum principle violated: solution range "
            f"[{solution.min():.6g}, {solution.max():.6g}] vs data range "
            f"[{ref_min:.6g}, {ref_max:.6g}]"
        )

    out = values.copy()
    out[unknown_mask] = solution
    return out


def _seam_mask(grid: TorusGrid) -> np.ndarray:
    """Cells whose centre lies on a torus seam plane (index 0 on any axis)."""
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.d):
        sl = [slice(None)] * grid.d
        sl[axis] = 0
        mask[tuple(sl)] = True
    return mask


def extend_pv(
    raw: RawTensions, geometry: Geometry
) -> tuple[np.ndarray, float, float]:
    """Extend gamma_pv to the torus; returns (field, c_pv, C_pv).

    The field equals gamma_pv on the container, is discretely harmonic
    outside with Dirichlet data gamma_pv on the boundary layer, and is
    pinned to ``min gamma_pv`` on the torus seam cells.  ``c_pv`` / ``C_pv``
    are the min/max of gamma_pv over the boundary layer; the extension
    stays inside [c_pv, C_pv] by the maximum principle.
    """
    grid = geometry.grid
    if not geometry.has_substrate:
        raise TensionError("tension extension requires a geometry with boundary")
    layer = boundary_layer_mask(geometry)
    seam = _seam_mask(grid)
    if (seam & (geometry.omega_mask | layer)).any():
        raise TensionError(
            "container reaches the torus seam; rebuild with a seam margin"
        )

    pv = raw.sample("pv", grid)
    c_pv = float(pv[layer].min())
    C_pv = float(pv[layer].max())

    known = geometry.omega_mask | layer | seam
    values = pv.copy()
    values[seam] = c_pv
    values[~known] = 0.0  # ignored; overwritten by the solve
    out = laplace_solve(grid, ~known, values)
    # The exact discrete solution satisfies the maximum principle; clip
    # away solver residual so the advertised bounds hold exactly (the
    # far-field triangle inequality can be tight and must not be broken
    # by 1e-13 noise).
    out[~known] = np.clip(out[~known], c_pv, C_pv)
    return out, c_pv, C_pv


@dataclass(frozen=True)
class ModifiedTensions:
    """The three torus-wide tension fields with their global bounds.

    A spatially constant field may be a read-only zero-stride view (as
    :meth:`RawTensions.sample` returns it), so callers copy a field
    before they write into it.
    """

    grid: TorusGrid
    pv: np.ndarray
    sp: np.ndarray
    sv: np.ndarray
    lower: float
    upper: float
    delta_used: float = math.nan
    halvings: int = 0
    strict_slack: float = math.nan

    def __post_init__(self) -> None:
        for name in ("pv", "sp", "sv"):
            arr = getattr(self, name)
            if arr.shape != self.grid.shape:
                raise TensionError(f"{name} field shape does not match grid")

    @classmethod
    def from_fields(cls, grid: TorusGrid, pv, sp, sv, **extra):
        pv, sp, sv = (np.asarray(a, dtype=np.float64) for a in (pv, sp, sv))
        lo = float(min(pv.min(), sp.min(), sv.min()))
        hi = float(max(pv.max(), sp.max(), sv.max()))
        return cls(grid=grid, pv=pv, sp=sp, sv=sv, lower=lo, upper=hi, **extra)

    @cached_property
    def is_spatially_constant(self) -> bool:
        return all(
            np.ptp(getattr(self, name)) == 0.0 for name in ("pv", "sp", "sv")
        )


@dataclass
class TriangleReport:
    """Cellwise triangle-inequality audit of a :class:`ModifiedTensions`."""

    worst_slack: dict
    violations: dict

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violations.values())


def verify_triangle(t: ModifiedTensions, tol: float = 0.0) -> TriangleReport:
    """Evaluate the three non-strict triangle inequalities cellwise.

    ``slack >= -tol`` counts as satisfied; the default is exact.  Reports
    the worst slack and the number of violating cells per inequality.
    When all three fields are zero-stride constants, one cell stands for
    every cell: its slacks are the worst, and a violation counts them all.
    """
    pv, sp, sv = t.pv, t.sp, t.sv
    per_entry = 1  # the cells each slack entry stands for
    if not any(pv.strides + sp.strides + sv.strides):
        per_entry = pv.size
        pv, sp, sv = (f[(0,) * f.ndim] for f in (pv, sp, sv))
    combos = {
        "pv<=sp+sv": (sp, sv, pv),
        "sp<=pv+sv": (pv, sv, sp),
        "sv<=pv+sp": (pv, sp, sv),
    }
    worst, viol = {}, {}
    for name, (a, b, c) in combos.items():
        # One slack array at a time, reduced before the next is built;
        # cells are counted only when the minimum says some violate.
        slack = a + b - c
        worst[name] = float(slack.min())
        viol[name] = (
            0 if worst[name] >= -tol else per_entry * int(np.count_nonzero(slack < -tol))
        )
        del slack
    return TriangleReport(worst_slack=worst, violations=viol)


def extend_substrate(
    raw: RawTensions,
    geometry: Geometry,
    gamma: Anisotropy,
) -> ModifiedTensions:
    """Build the full :class:`ModifiedTensions` triple.

    On the boundary layer the substrate tensions become
    ``gamma_s(x) / gamma(normal(x))``; on the two strips of width delta
    (``geometry.delta``) they are the ratio of two harmonic strip solutions (data gamma_s on
    the boundary, ``C_gamma C_pv / 2`` on the outer strip edge, against
    the reference solution with data gamma(normal) and ``c_gamma``);
    everywhere else they take the constant ``C_gamma C_pv / (2 c_gamma)``.

    Strictness of the strip triangle inequalities (against the extended
    particle-vapor tension) is verified a posteriori; on failure delta is
    halved, up to four times.
    """
    grid = geometry.grid
    validate_raw_tensions(raw, geometry, gamma)

    pv_field, c_pv, C_pv = extend_pv(raw, geometry)
    c_g, C_g = gamma.bounds()
    far = C_g * C_pv / (2.0 * c_g)
    outer_s = 0.5 * C_g * C_pv

    layer = boundary_layer_mask(geometry)
    normals = geometry.normal_band[(slice(None),) + np.nonzero(layer)]
    gamma_nu_layer = gamma(np.moveaxis(normals, 0, -1))

    sp_data = raw.sample("sp", grid)[layer]
    sv_data = raw.sample("sv", grid)[layer]

    last_failure = ""
    max_halvings = 4
    for halving in range(max_halvings + 1):
        delta_k = geometry.delta / 2**halving
        strips = {}
        ok = True
        slack_min = math.inf
        for sign in (+1, -1):
            strip = band_mask(geometry, sign, delta=delta_k) & ~layer
            if not strip.any():
                strips[sign] = (strip, None, None, None)
                continue
            g_delta = _strip_solve(grid, strip, layer, gamma_nu_layer, c_g)
            g_sp = _strip_solve(grid, strip, layer, sp_data, outer_s)
            g_sv = _strip_solve(grid, strip, layer, sv_data, outer_s)
            pv_s = pv_field[strip]
            slacks = _strict_slack(pv_s, g_sp, g_sv, c_g, C_g)
            slack_min = min(slack_min, float(slacks.min()))
            if not slacks.min() > 0.0:
                ok = False
                last_failure = (
                    f"delta={delta_k:.3g}: strict strip inequalities fail at "
                    f"{int((slacks <= 0).sum())} cells "
                    f"(worst slack {float(slacks.min()):.3e})"
                )
                break
            strips[sign] = (strip, g_delta, g_sp, g_sv)
        if ok:
            break
    else:
        raise NumericalError(
            f"strip construction failed after {max_halvings} halvings: "
            + last_failure
        )

    sp_field = np.full(grid.shape, far)
    sv_field = np.full(grid.shape, far)
    sp_field[layer] = sp_data / gamma_nu_layer
    sv_field[layer] = sv_data / gamma_nu_layer
    ratio_lo, ratio_hi = [], []
    for sign, (strip, g_delta, g_sp, g_sv) in strips.items():
        if g_delta is None:
            continue
        sp_field[strip] = g_sp / g_delta
        sv_field[strip] = g_sv / g_delta
        lo_d, hi_d = _data_range(gamma_nu_layer, c_g)
        for g_num in (sp_data, sv_data):
            lo_n, hi_n = _data_range(g_num, outer_s)
            ratio_lo.append(lo_n / hi_d)
            ratio_hi.append(hi_n / lo_d)

    # A-priori bounds: every assembled value is either a layer ratio, a
    # strip ratio (bounded by data-range ratios via the maximum
    # principle), or the far constant.
    lo_cand = [far, float((sp_data / gamma_nu_layer).min()),
               float((sv_data / gamma_nu_layer).min())] + ratio_lo
    hi_cand = [far, float((sp_data / gamma_nu_layer).max()),
               float((sv_data / gamma_nu_layer).max())] + ratio_hi
    apriori_lo, apriori_hi = min(lo_cand), max(hi_cand)
    for name, arr in (("sp", sp_field), ("sv", sv_field)):
        if arr.min() < apriori_lo * (1.0 - 1e-6) - 1e-12 or arr.max() > (
            apriori_hi * (1.0 + 1e-6) + 1e-12
        ):
            raise NumericalError(
                f"assembled {name} field escapes its a-priori range "
                f"[{apriori_lo:.6g}, {apriori_hi:.6g}]"
            )

    result = ModifiedTensions.from_fields(
        grid,
        pv_field,
        sp_field,
        sv_field,
        delta_used=delta_k,
        halvings=halving,
        strict_slack=slack_min,
    )
    audit = verify_triangle(result, tol=4.0 * np.finfo(np.float64).eps * result.upper)
    if not audit.ok:
        raise NumericalError(
            "assembled tensions violate the triangle inequalities: "
            f"{audit.violations} (worst slacks {audit.worst_slack})"
        )
    return result


def _data_range(inner: np.ndarray, outer: float) -> tuple[float, float]:
    return (
        min(float(inner.min()), outer),
        max(float(inner.max()), outer),
    )


def _strip_solve(
    grid: TorusGrid,
    strip: np.ndarray,
    layer: np.ndarray,
    layer_values: np.ndarray,
    outer_value: float,
) -> np.ndarray:
    """Solve one strip problem; returns values on the strip cells only."""
    values = np.full(grid.shape, outer_value)
    values[layer] = layer_values
    out = laplace_solve(grid, strip, values)
    return out[strip]
