"""Thresholding dynamics for the obstacle problem.

One step linearises the convolution energy at the current binary phase
``u`` and minimises the linearisation over binary fields supported on
the container, optionally under an exact volume constraint:

* the comparison field ``phi`` is the discrete first variation of the
  energy (both tension placements appear because the tensions multiply
  the *target* point of the convolution);
* one selection returns the new phase as the list of container cells
  where ``phi < lambda``, from which the new field is built — the
  obstacle is enforced structurally, substrate cells never activate;
* ``lambda = 0`` for unconstrained descent; with volume preservation it
  is the order statistic that selects exactly ceil(m / cell) cells,
  ties broken by ascending lexicographic cell order (deterministic).

Everything fixed for a run lives in one :class:`~ambo.energy.RunOperator`
and every state carries K_h*u, so with constant g_pv a step costs at
most one convolution: that of the new phase, which serves both its
diagnostics and the next comparison field.  Every state's K_h*u is
:func:`~ambo.kernel.convolve_cells` over its own support, a box product
or an FFT convolution as the cells' box dictates, and a spatially
varying g_pv convolves g_pv u the same way.  Every state's field is
built by :meth:`~ambo.energy.PhaseField.from_support`, state 0's from
the user field's support, and holds only its cells, so a step streams
no dense copy of the phase, and a step that keeps the phase costs no
convolution: it returns its input state with the new step index and
lambda.

The run driver detects exact stationarity over a window, flags 2-cycles
(both states are kept), and — without the volume constraint — asserts
that the energy never increases beyond a small relative slack.  A step
is a pure function of u and K_h*u, so once one step has kept the phase
the remaining window steps are copies of its state with the step index
advanced; the scheme is not run for them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .energy import PhaseField, RunOperator, approx_energy, indicator_defect
from .errors import NumericalError
from .geometry import Band, Geometry
from .grid import TorusGrid, periodic_components
from .kernel import GaussianKernel, Kernel, convolve_cells, scale_kernel
from .tensions import ModifiedTensions

__all__ = [
    "SchemeConfig",
    "SchemeState",
    "Trajectory",
    "SchemeError",
    "comparison_field",
    "step",
    "run",
    "measure_contact_angle",
]


class SchemeError(ValueError):
    """Raised for invalid scheme configurations or measurement inputs."""


@dataclass(frozen=True)
class SchemeConfig:
    """Time step, volume constraint (keep the initial volume) and stopping rules."""

    h: float
    preserve_volume: bool = False
    max_steps: int = 100
    stationarity_window: int = 3

    def __post_init__(self) -> None:
        if not self.h > 0.0:
            raise SchemeError(f"h must be positive, got {self.h}")
        if self.max_steps < 1:
            raise SchemeError("max_steps must be at least 1")
        if self.stationarity_window < 1:
            raise SchemeError("stationarity window must be at least 1")


@dataclass(frozen=True)
class SchemeState:
    """One snapshot of the evolution (immutable); ``ku`` is K_h*u."""

    step: int
    u: PhaseField
    lam: float
    ku: np.ndarray
    energy: float
    volume: float
    interface_cells: int
    defect: float


@dataclass
class Trajectory:
    """Per-step diagnostics plus the final state of a run.

    ``diagnostics`` covers every step, one
    (step, energy, volume, interface cells, lambda, defect) row each,
    the window steps that confirm stationarity included (they are
    copies of the state that first kept the phase);
    ``cycle_states`` holds both states of a 2-cycle.
    """

    diagnostics: list
    final: SchemeState
    stationary: bool = False
    oscillating: bool = False
    cycle_states: tuple = ()


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------

def comparison_field(u: PhaseField, op: RunOperator, ku: np.ndarray) -> np.ndarray:
    """First variation of the energy at u (up to the 1/sqrt(h) factor).

    phi(x) = g_pv(x) (K_h * (1_container - u))(x) - (K_h * (g_pv u))(x)
           + (g_sp(x) - g_sv(x)) (K_h * 1_substrate)(x).

    ``ku`` is K_h*u.  Meaningful on container cells; evaluated
    everywhere for convenience, in place on one array.  A varying g_pv
    convolves g_pv u by :func:`~ambo.kernel.convolve_cells`, as K_h*u is.
    The last term is the operator's precomputed ``wetting`` field, absent
    without a substrate.
    """
    if u.grid != op.grid:
        raise SchemeError("phase field and operator grids differ")
    phi = op.k_omega - ku
    pv = op.pv_constant
    if pv is None:
        phi *= op.tensions.pv
        cells = u.support
        phi -= convolve_cells(op.kh, cells, u.weigh(op.tensions.pv.take(cells)))
    elif pv == 1.0:
        phi -= ku  # x * 1.0 == x exactly, so both products are skipped
    else:
        phi *= pv
        phi -= pv * ku
    if op.wetting is not None:
        phi += op.wetting
    return phi


def _select(
    phi: np.ndarray, geometry: Geometry, m: float | None
) -> tuple[float, np.ndarray]:
    """Lambda and the sorted flat indices of the new phase's cells.

    Without a volume target ``m``: 0 and the container cells where phi < 0.
    With one: the k-th smallest phi (``-inf`` when k = 0) and the k =
    ceil(m / cell) container cells of smallest phi, ties to the lowest
    index, as the first k of a stable sort."""
    if m is None:
        negative = phi < 0.0
        if geometry.has_substrate:
            negative &= geometry.omega_mask
        return 0.0, np.flatnonzero(negative)
    # ceil with a relative guard so that m = k * cell_measure (computed in
    # floating point) maps to k, not k+1.
    ratio = m / geometry.grid.cell_measure
    k = int(math.ceil(ratio - 1e-9 * max(1.0, ratio)))
    # A bool gather; measured faster than a take over omega_cells.
    values = phi.ravel()[geometry.omega_mask.ravel()]
    if not np.all(np.isfinite(values)):
        raise SchemeError("comparison field is not finite on the container")
    if k > values.size:
        raise SchemeError(
            f"target volume {m} needs {k} cells but the container has "
            f"{values.size}"
        )
    if k <= 0:
        return -math.inf, geometry.omega_cells[:0]
    kth = np.partition(values, k - 1)[k - 1]
    chosen = values < kth
    ties = np.flatnonzero(values == kth)[: k - int(chosen.sum())]
    chosen[ties] = True
    # The last tie taken is the stable sort's k-th entry (sign of zero included).
    return float(values[ties[-1]]), geometry.omega_cells[chosen]


def _make_state(k: int, u: PhaseField, lam: float, op: RunOperator) -> SchemeState:
    """The state of the binary phase u and its diagnostics, K_h*u by
    :func:`~ambo.kernel.convolve_cells` over u's support."""
    ku = convolve_cells(op.kh, u.support, 1.0)
    ku.flags.writeable = False
    return SchemeState(
        step=k,
        u=u,
        lam=lam,
        ku=ku,
        energy=approx_energy(u, op, ku),
        volume=u.volume(),
        interface_cells=u.interface_cell_count(),
        defect=indicator_defect(ku, u.geometry),
    )


def step(state: SchemeState, config: SchemeConfig, op: RunOperator) -> SchemeState:
    """Advance one thresholding step.

    A step that changes the phase builds the new field and evaluates its
    K_h*u afresh.  A step that keeps the phase returns its input state
    with the new step index and lambda: every state's field was built by
    :meth:`PhaseField.from_support`, so u, K_h*u and every diagnostic are
    already the bits a rebuild would give, and no convolution runs.
    """
    phi = comparison_field(state.u, op, state.ku)
    geometry = state.u.geometry
    m = state.volume if config.preserve_volume else None
    lam, cells = _select(phi, geometry, m)
    del phi  # released before the new phase is convolved
    if np.array_equal(cells, state.u.support):
        return dataclasses.replace(state, step=state.step + 1, lam=lam)
    u_next = PhaseField.from_support(geometry, cells)
    if m is not None:
        volume, tol = u_next.volume(), geometry.grid.cell_measure  # one cell
        if abs(volume - m) > tol:
            raise NumericalError(f"volume drifted: |{volume} - {m}| > {tol}")
    return _make_state(state.step + 1, u_next, lam, op)


def run(
    initial: PhaseField,
    config: SchemeConfig,
    t: ModifiedTensions,
    kernel: Kernel,
    *,
    on_state=None,
) -> Trajectory:
    """Iterate the scheme until stationarity, a 2-cycle, or max_steps.

    Only diagnostics plus the states needed for reporting are kept;
    ``on_state`` is called with each state as it is produced (for
    streaming snapshots to disk).  Without volume preservation the
    energy must be non-increasing up to ``1e-8 * E(u0)`` slack —
    violation raises, since it would mean the linearisation argument
    failed numerically.

    State 0 holds the field rebuilt from the initial field's support, so
    its bytes do not depend on how the user stored the zeros.  A step
    that keeps the phase costs no convolution, and each further step of
    the stationarity window is emitted as a copy of its state with the
    step index advanced, without calling :func:`step`: it would see the
    same u and K_h*u and return the same state.  The bytes are those of
    a full recompute.
    """
    geometry = initial.geometry
    kh = scale_kernel(kernel, geometry.grid, config.h)
    if not initial.is_binary():
        raise SchemeError("initial phase field must be binary")

    def diag_row(s: SchemeState):
        return (s.step, s.energy, s.volume, s.interface_cells, s.lam, s.defect)

    op = RunOperator.build(geometry, t, kh)
    # Rebuilt, as every later field is: the user's zeros may be -0.0.
    initial = PhaseField.from_support(geometry, initial.support)
    state = _make_state(0, initial, math.nan, op)
    del initial  # state 0 holds it only until the first step replaces it
    diagnostics = [diag_row(state)]
    if on_state is not None:
        on_state(state)
    e0_slack = 1e-8 * max(abs(state.energy), 1.0)
    # The fields are binary, so comparing supports compares the fields.
    prev_support = None
    streak = 0
    for _ in range(config.max_steps):
        if streak:
            # The last step kept the phase, so ``step`` returned its input
            # state; this one would see the same inputs and return it again.
            new_state = dataclasses.replace(state, step=state.step + 1)
        else:
            new_state = step(state, config, op)
        diagnostics.append(diag_row(new_state))
        if on_state is not None:
            on_state(new_state)
        if not config.preserve_volume and (
            new_state.energy > state.energy + e0_slack
        ):
            raise NumericalError(
                f"energy increased at step {new_state.step}: "
                f"{state.energy!r} -> {new_state.energy!r}"
            )
        unchanged = np.array_equal(new_state.u.support, state.u.support)
        if (
            prev_support is not None
            and not unchanged
            and np.array_equal(new_state.u.support, prev_support)
        ):
            return Trajectory(
                diagnostics,
                new_state,
                oscillating=True,
                cycle_states=(state, new_state),
            )
        prev_support = state.u.support
        streak = streak + 1 if unchanged else 0
        state = new_state
        if streak >= config.stationarity_window:
            return Trajectory(diagnostics, state, stationary=True)
    return Trajectory(diagnostics, state)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

# Interface points per side that the contact-angle fit uses.
_WINDOW_CELLS = 12


def measure_contact_angle(
    u: PhaseField,
    geometry: Geometry,
    *,
    skip_cells: int = 13,
) -> list[float]:
    """Interior contact angles (degrees) of a droplet on a flat substrate.

    The two contact points come from the wetted cells (phase cells one
    row above the substrate).  Near each contact the free boundary is
    sampled at subpixel accuracy from the 1/2 level of the indicator
    smoothed by K_h with h = (3 spacing)^2.  A circle is fitted through
    the interface points of 12 rows per side (``_WINDOW_CELLS``) and the
    angle is taken between its tangent at substrate height and the
    substrate line; when the circle misses that line, straight-line fits
    through the same points give the angles instead.

    ``skip_cells`` rows nearest the substrate are excluded: there the
    level set is bent by the substrate truncation, over a layer about
    three standard deviations of the smoothing kernel thick.  That
    standard deviation is sqrt(2 h) = 3 sqrt(2) cells, hence the default
    of 13 rows.
    """
    grid = u.grid
    if grid.d != 2:
        raise SchemeError("contact angles are measured in d=2")
    if not isinstance(geometry.shape, Band):
        raise SchemeError("contact angles need a flat (band) substrate")
    if not u.is_binary():
        raise SchemeError("phase field must be binary")

    n_comp, labels = periodic_components(u.values > 0.5)
    if n_comp == 0:
        raise SchemeError("empty phase: no contact points")

    y0 = geometry.shape.lo % 1.0
    spacing = grid.spacing
    coords = grid.axis_coords()
    # First cell row whose centre lies above the substrate line.
    j0 = int(np.searchsorted(coords, y0 + 0.5 * spacing - 1e-12))

    wetted_cols = np.flatnonzero(u.values[:, j0] > 0.5)
    if wetted_cols.size == 0:
        raise SchemeError("phase does not touch the substrate")
    touching = set(labels[wetted_cols, j0].tolist())
    if len(touching) > 1:
        raise SchemeError("more than one component touches the substrate")
    if wetted_cols[0] == 0 and wetted_cols[-1] == grid.n - 1:
        raise SchemeError("droplet wraps around the torus seam; recentre it")

    w = scale_kernel(GaussianKernel(), grid, (3.0 * spacing) ** 2).convolve(u.values)
    f = 0.5 - w  # negative inside the phase

    pts_left = _trace_interface(
        f, grid, start_col=int(wetted_cols[0]), start_row=j0, side="left",
        skip=skip_cells, count=_WINDOW_CELLS,
    )
    pts_right = _trace_interface(
        f, grid, start_col=int(wetted_cols[-1]), start_row=j0, side="right",
        skip=skip_cells, count=_WINDOW_CELLS,
    )
    # The free boundary of a capillary droplet is a single circular arc,
    # so one circle is fitted through both branches: the joint fit pins
    # the centre and radius far better than two short per-side arcs.
    circle = _kasa_circle(np.vstack([pts_left, pts_right]))
    left = _circle_contact_angle(circle, y0, "left")
    right = _circle_contact_angle(circle, y0, "right")
    if left is None or right is None:
        # Fitted circle misses the substrate line; fall back to lines.
        return [
            _line_contact_angle(pts_left, "left"),
            _line_contact_angle(pts_right, "right"),
        ]
    return [left, right]


def _trace_interface(
    f: np.ndarray,
    grid: TorusGrid,
    *,
    start_col: int,
    start_row: int,
    side: str,
    skip: int,
    count: int,
) -> np.ndarray:
    """Subpixel zero crossings of f row by row above one contact point.

    Tracing stops early when the crossing jumps more than 1.5 columns
    between consecutive rows — there the interface has turned nearly
    horizontal (droplet apex) and row scans cut it at grazing incidence.
    """
    n = grid.n
    coords = grid.axis_coords()
    pts = []
    guess = float(coords[start_col])
    for j in range(start_row + skip, start_row + skip + count):
        if j >= n:
            break
        row = f[:, j]
        # Crossings between consecutive cells (periodic in the column index).
        nxt = np.roll(row, -1)
        cross = np.flatnonzero((row < 0.0) & (nxt >= 0.0) | (row >= 0.0) & (nxt < 0.0))
        if cross.size == 0:
            break
        xs = []
        for i in cross:
            x0, f0 = coords[i], row[i]
            f1 = nxt[i]
            frac = f0 / (f0 - f1)
            xs.append((x0 + frac * grid.spacing) % 1.0)
        xs = np.asarray(xs)
        deltas = (xs - guess + 0.5) % 1.0 - 0.5
        pick = int(np.argmin(np.abs(deltas)))
        if pts and abs(deltas[pick]) > 1.5 * grid.spacing:
            break
        x = guess + deltas[pick]
        pts.append((x, coords[j]))
        guess = x
    if len(pts) < 3:
        raise SchemeError(
            f"could not trace the {side} interface ({len(pts)} points); "
            "the phase may be too small for the fit window"
        )
    return np.asarray(pts)


def _kasa_circle(pts: np.ndarray) -> tuple[float, float, float]:
    """Algebraic circle fit: minimise sum (x^2+y^2 + D x + E y + F)^2."""
    x, y = pts[:, 0], pts[:, 1]
    a_mat = np.stack([x, y, np.ones_like(x)], axis=-1)
    b_vec = -(x * x + y * y)
    (d_coef, e_coef, f_coef), *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    xc, yc = -0.5 * d_coef, -0.5 * e_coef
    r2 = xc * xc + yc * yc - f_coef
    if r2 <= 0.0:
        raise SchemeError("degenerate circle fit through the interface points")
    return float(xc), float(yc), math.sqrt(r2)


def _circle_contact_angle(
    circle: tuple[float, float, float], y0: float, side: str
) -> float | None:
    """Interior angle of the circle's tangent against the line y = y0."""
    xc, yc, radius = circle
    under = radius * radius - (y0 - yc) ** 2
    if under <= 0.0:
        return None
    half = math.sqrt(under)
    x_contact = xc + half if side == "right" else xc - half
    radial = np.asarray([(x_contact - xc) / radius, (y0 - yc) / radius])
    return _interior_angle(np.asarray([-radial[1], radial[0]]), side)


def _line_contact_angle(pts: np.ndarray, side: str) -> float:
    """Interior angle of the principal line through the points."""
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return _interior_angle(vt[0], side)


def _interior_angle(t: np.ndarray, side: str) -> float:
    """Interior angle (degrees) at the ``side`` contact between the
    substrate line and the direction t, taken pointing upwards."""
    if t[1] < 0:
        t = -t
    if side == "right":
        return math.degrees(math.atan2(t[1], -t[0]))
    return math.degrees(math.atan2(t[1], t[0]))
