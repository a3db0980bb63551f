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
varying g_pv convolves g_pv u the same way.

Where :class:`~ambo.energy.RunOperator` is in closed form (a factored
kernel on a band or the torus), a state evaluates K_h*u only on its
*step box*: per axis, the phase's coordinates dilated periodically by a
margin m_k and clipped to the container's extent (Ruuth's narrow band
for threshold dynamics).  m_k is the smallest m whose tail, the axis
factor's mass at offsets beyond m, is at most ``kernel._TAIL`` of its
total, so K_h*u off the box is at most a bound U of about that share.
The comparison field and the selection read only the box, whose C order
is the grid's cell order, so ties break and cells come out as on the
grid, and the box's K_h*u holds the grid's values (to the last bit,
which BLAS may round otherwise at the box's far edges, about a margin
from the phase; see ``convolve_cells``).  A certificate shows that no
cell off the box could be selected: the operator's ``floor`` bounds phi
from below there (min of g_pv K_h*1_container + wetting, less 2 g_pv,max
U and a rounding slack); an unconstrained step passes when floor >= 0,
a volume step when its k-th smallest phi on the box lies below floor.
A step that fails widens to the whole grid: it convolves the phase over
the grid and selects there, so the phase, lambda and the energies keep
the bytes of a run without boxes.  The defect is taken in closed form,
from u's cells and the kernel's Gram matrices, so it needs no K_h*u off
the box.  Other runs (a kernel without factors, a disk container) step
on the whole grid.  Every state's field is
built by :meth:`~ambo.energy.PhaseField.from_support`, state 0's from
the user field's support, and holds only its cells, so a step streams
no dense copy of the phase, and a step that keeps the phase costs no
convolution: it returns its input state with the new step index and
lambda.

The run driver detects exact stationarity over a window, flags 2-cycles
(both states are kept), and asserts that the energy never increases
beyond a small relative slack, except in a volume-preserving run with
spatially varying tensions, whose descent is not given.  A step
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
from .grid import TorusGrid, on_box, periodic_components
from .kernel import (
    GaussianKernel,
    Kernel,
    _cell_box,
    convolve_cells,
    convolved_square_sum,
    scale_kernel,
)
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
    """One snapshot of the evolution (immutable); ``ku`` is K_h*u on the
    state's step ``box``: per axis the ascending coordinates, or None for
    the whole grid."""

    step: int
    u: PhaseField
    lam: float
    ku: np.ndarray
    energy: float
    volume: float
    interface_cells: int
    defect: float
    box: tuple | None


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

def comparison_field(
    u: PhaseField, op: RunOperator, ku: np.ndarray, box: tuple | None = None
) -> np.ndarray:
    """First variation of the energy at u (up to the 1/sqrt(h) factor).

    phi(x) = g_pv(x) (K_h * (1_container - u))(x) - (K_h * (g_pv u))(x)
           + (g_sp(x) - g_sv(x)) (K_h * 1_substrate)(x).

    ``ku`` is K_h*u on ``box`` (per axis the ascending coordinates; None:
    the whole grid), and so is phi, cell for cell the bytes of the whole
    grid's phi.  Meaningful on container cells; evaluated everywhere for
    convenience, in place on one array.  A varying g_pv convolves g_pv u
    by :func:`~ambo.kernel.convolve_cells`, as K_h*u is.  The last term is
    the operator's precomputed ``wetting`` field, absent without a
    substrate.
    """
    if u.grid != op.grid:
        raise SchemeError("phase field and operator grids differ")
    k_omega = op.omega_constant
    phi = (on_box(op.k_omega, box) if k_omega is None else k_omega) - ku
    pv = op.pv_constant
    if pv is None:
        phi *= on_box(op.tensions.pv, box)
        cells = u.support
        phi -= convolve_cells(op.kh, cells, u.weigh(op.tensions.pv.take(cells)), box)
    elif pv == 1.0:
        phi -= ku  # x * 1.0 == x exactly, so both products are skipped
    else:
        phi *= pv
        phi -= pv * ku
    if op.wetting is not None:
        phi += on_box(op.wetting, box)
    return phi


def _select(
    phi: np.ndarray,
    geometry: Geometry,
    m: float | None,
    box: tuple | None = None,
    floor: float = -math.inf,
) -> tuple[float, np.ndarray] | None:
    """Lambda and the sorted flat indices of the new phase's cells.

    Without a volume target ``m``: 0 and the container cells where phi < 0.
    With one: the k-th smallest phi (``-inf`` when k = 0) and the k =
    ceil(m / cell) container cells of smallest phi, ties to the lowest
    index, as the first k of a stable sort.

    ``phi`` lives on ``box`` (None: the whole grid), whose C order is the
    grid's cell order.  Every container cell off the box has phi >=
    ``floor``, so the box's selection is the grid's when floor >= 0
    without a target, and when the k-th smallest phi on the box lies
    below floor with one: no cell off the box is then selected or tied.
    Otherwise this certificate fails and the result is None.
    """
    omega = geometry.omega_on(box)
    if m is None:
        if box is not None and not floor >= 0.0:
            return None
        negative = phi < 0.0
        if omega is not None:
            negative &= omega
        return 0.0, _grid_cells(np.flatnonzero(negative), box, geometry.grid)
    # ceil with a relative guard so that m = k * cell_measure (computed in
    # floating point) maps to k, not k+1.
    ratio = m / geometry.grid.cell_measure
    k = int(math.ceil(ratio - 1e-9 * max(1.0, ratio)))
    # A bool gather; measured faster than a take over omega_cells.
    values = phi.ravel() if omega is None else phi.ravel()[omega.ravel()]
    if not np.all(np.isfinite(values)):
        raise SchemeError("comparison field is not finite on the container")
    if k > values.size:
        if box is not None:
            return None
        raise SchemeError(
            f"target volume {m} needs {k} cells but the container has "
            f"{values.size}"
        )
    if k <= 0:
        return -math.inf, np.zeros(0, dtype=np.intp)
    kth = np.partition(values, k - 1)[k - 1]
    if box is not None and not kth < floor:
        return None
    chosen = values < kth
    ties = np.flatnonzero(values == kth)[: k - int(chosen.sum())]
    chosen[ties] = True
    # The last tie taken is the stable sort's k-th entry (sign of zero included).
    if omega is None:
        positions = np.flatnonzero(chosen)
    else:
        positions = (geometry.omega_cells if box is None else np.flatnonzero(omega))[chosen]
    return float(values[ties[-1]]), _grid_cells(positions, box, geometry.grid)


def _grid_cells(positions: np.ndarray, box: tuple | None, grid: TorusGrid) -> np.ndarray:
    """The flat grid indices of ascending flat positions in ``box``, ascending."""
    if box is None:
        return positions
    at = np.unravel_index(positions, tuple(c.size for c in box))
    return np.ravel_multi_index(tuple(c[i] for c, i in zip(box, at)), grid.shape)


def _step_box(u: PhaseField, op: RunOperator, phase: tuple) -> tuple:
    """u's step box and the flat positions of u's cells in it, or
    (None, None) for the whole grid; ``phase`` is the cells' own box,
    per axis their distinct coordinates and each cell's position among
    them (:func:`~ambo.kernel._cell_box`).

    Per axis the step box holds the coordinates of u's cells, dilated
    periodically by the run's margin on that axis and clipped to the
    container's extent, ascending.  A run without margins (a kernel
    without factors, or a disk container) gets the whole grid.
    """
    if op.margins is None:
        return None, None
    grid = u.grid
    box, inner = [], []
    for coords, margin, extent in zip(phase[0], op.margins, u.geometry.extent):
        present = np.zeros(grid.n, dtype=bool)
        present[coords] = True
        inside = _dilate(present, margin) & extent
        box.append(np.flatnonzero(inside))
        inner.append((np.cumsum(inside) - 1).take(coords))  # their positions in the box
    at = tuple(i.take(w) for i, w in zip(inner, phase[1]))
    return tuple(box), np.ravel_multi_index(at, tuple(b.size for b in box))


def _dilate(present: np.ndarray, margin: int) -> np.ndarray:
    """The coordinates within ``margin`` cells of a present one, periodically."""
    n = present.size
    if 2 * margin + 1 >= n:
        return np.full(n, present.any())
    wrapped = np.concatenate([present[n - margin :], present, present[:margin]])
    counts = np.concatenate([[0], np.cumsum(wrapped)])
    # Window i of 2 margin + 1 wrapped cells is centred on coordinate i.
    return counts[2 * margin + 1 :] > counts[:n]


def _make_state(k: int, u: PhaseField, lam: float, op: RunOperator) -> SchemeState:
    """The state of the binary phase u and its diagnostics, K_h*u by
    :func:`~ambo.kernel.convolve_cells` over u's support on u's step box.
    With a box, the defect is cell (sum w - sum w^2) over the container,
    w = K_h*u: sum w sums K_h*1_container over u's cells (K_h is even),
    and sum w^2 is :func:`~ambo.kernel.convolved_square_sum`."""
    phase = _cell_box(u.grid, u.support) if op.margins is not None else None
    box, at = _step_box(u, op, phase)
    ku = convolve_cells(op.kh, u.support, 1.0, box, phase)
    ku.flags.writeable = False
    if phase is None:
        defect = indicator_defect(ku, u.geometry)
    else:
        c = op.omega_constant
        mass = u.support.size * c if c is not None else op.k_omega.take(u.support).sum()
        squares = convolved_square_sum(op.kh, u.geometry.extent, phase)
        defect = float((mass - squares) * u.grid.cell_measure)
    del phase  # released before the diagnostics allocate
    return SchemeState(
        step=k,
        u=u,
        lam=lam,
        ku=ku,
        energy=approx_energy(u, op, ku if box is None else ku.take(at)),
        volume=u.volume(),
        interface_cells=u.interface_cell_count(),
        defect=defect,
        box=box,
    )


def step(state: SchemeState, config: SchemeConfig, op: RunOperator) -> SchemeState:
    """Advance one thresholding step.

    The comparison field and the selection read the state's step box.
    When the certificate of :func:`_select` fails, the step widens to the
    whole grid: it convolves the phase over the grid and selects there,
    as a run without step boxes does, so the new phase and lambda are the
    same bytes either way.

    A step that changes the phase builds the new field and evaluates its
    K_h*u afresh.  A step that keeps the phase returns its input state
    with the new step index and lambda: every state's field was built by
    :meth:`PhaseField.from_support`, so u, K_h*u and every diagnostic are
    already the bits a rebuild would give, and no convolution runs.
    """
    geometry = state.u.geometry
    m = state.volume if config.preserve_volume else None
    phi = comparison_field(state.u, op, state.ku, state.box)
    picked = _select(phi, geometry, m, state.box, op.floor)
    del phi  # released before any further convolution
    if picked is None:
        ku = convolve_cells(op.kh, state.u.support, 1.0)
        picked = _select(comparison_field(state.u, op, ku), geometry, m)
        del ku  # released before the new phase is convolved
    lam, cells = picked
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
    streaming snapshots to disk).  The energy must be non-increasing up
    to ``1e-8 * E(u0)`` slack — violation raises, since it would mean the
    linearisation argument failed numerically.  The volume step minimises
    the linearisation over the sets of the old set's volume, so the
    argument holds for it too, but only with spatially constant tensions:
    varying ones, taken at the target point of the convolution, make the
    energy's quadratic form non-symmetric, and a volume-preserving run
    with them is not checked.

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
    descends = not config.preserve_volume or t.is_spatially_constant
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
        if descends and new_state.energy > state.energy + e0_slack:
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

# Cell rows of the contact-angle fit window.
_WINDOW_CELLS = 12


def measure_contact_angle(
    u: PhaseField,
    geometry: Geometry,
    *,
    skip_cells: int = 13,
) -> float:
    """Interior contact angle (degrees) of a droplet on a flat substrate,
    in any d.

    The droplet is the component of the phase that touches the substrate
    (has cells in the row just above the substrate line).  Its free
    boundary is the 1/2 level of its indicator smoothed by K_h with
    h = (3 spacing)^2, f = 1/2 - K_h*u, evaluated on the fit window
    alone: the 12 rows (``_WINDOW_CELLS``) that start ``skip_cells`` rows
    above the substrate, by :func:`~ambo.kernel.convolve_cells`, so no
    FFT runs.  Every sign change of f on a grid edge of the window, along
    every axis, is placed by linear interpolation (Lorensen & Cline
    1987), and one circle (d = 2) or sphere (d = 3) is fitted to all of
    them by the algebraic fit of Kasa (1976).  With the fitted centre's
    height y_c and radius r, the angle at the substrate height y0 is
    acos((y0 - y_c) / r).

    ``skip_cells`` rows nearest the substrate are excluded: there the
    level set is bent by the substrate truncation, over a layer about
    three standard deviations of the smoothing kernel thick.  That
    standard deviation is sqrt(2 h) = 3 sqrt(2) cells, hence the default
    of 13 rows.

    A SchemeError names why a phase cannot be measured: it is not binary
    or not on a band, it is empty, it does not touch the substrate, more
    than one component does, the droplet wraps around the seam of an
    axis along the substrate, the window holds too few crossings for a
    fit, or the fitted circle or sphere misses the substrate line.
    """
    grid = u.grid
    if not isinstance(geometry.shape, Band):
        raise SchemeError("contact angles need a flat (band) substrate")
    if not u.is_binary():
        raise SchemeError("phase field must be binary")

    mask = np.zeros(grid.shape, dtype=bool)
    mask.flat[u.support] = True
    n_comp, labels = periodic_components(mask)
    if n_comp == 0:
        raise SchemeError("empty phase: no contact points")

    y0 = geometry.shape.lo % 1.0
    coords = grid.axis_coords()
    # First cell row whose centre lies above the substrate line.
    j0 = int(np.searchsorted(coords, y0 + 0.5 * grid.spacing - 1e-12))
    touching = np.unique(np.take(labels, j0, axis=1))
    touching = touching[touching > 0]
    if touching.size == 0:
        raise SchemeError("phase does not touch the substrate")
    if touching.size > 1:
        raise SchemeError("more than one component touches the substrate")
    cells = np.flatnonzero(labels == touching[0])
    spans = [(c.min(), c.max()) for c in np.unravel_index(cells, grid.shape)]
    if any(k != 1 and lo == 0 and hi == grid.n - 1 for k, (lo, hi) in enumerate(spans)):
        raise SchemeError("droplet wraps around the torus seam; recentre it")

    rows = np.arange(j0 + skip_cells, min(j0 + skip_cells + _WINDOW_CELLS, grid.n))
    box = tuple(rows if k == 1 else np.arange(grid.n) for k in range(grid.d))
    kh = scale_kernel(GaussianKernel(), grid, (3.0 * grid.spacing) ** 2)
    f = 0.5 - convolve_cells(kh, cells, 1.0, box)  # negative inside the phase
    points = []
    for axis in range(grid.d):
        # Each cell's edge to the next one along the axis: periodic along
        # the substrate, within the window across it.
        here, ahead = f, np.roll(f, -1, axis)
        if axis == 1:
            here, ahead = here[:, :-1], ahead[:, :-1]
        edges = np.nonzero((here < 0.0) != (ahead < 0.0))
        a, b = here[edges], ahead[edges]
        x = np.stack([coords[c[i]] for c, i in zip(box, edges)], axis=-1)
        x[:, axis] += a / (a - b) * grid.spacing
        points.append(x)
    x = np.concatenate(points)
    if x.shape[0] <= grid.d + 1:
        raise SchemeError(
            f"too few interface crossings in the fit window ({x.shape[0]}); "
            "the phase may be too small for it"
        )
    # Each coordinate as its image nearest the droplet, which does not
    # wrap around the seam.
    middle = np.array([lo + hi for lo, hi in spans]) * (0.5 * grid.spacing)
    centre, radius = _kasa_sphere(middle + grid.wrap_delta(x - middle))
    cos_theta = (y0 - centre[1]) / radius
    if not abs(cos_theta) < 1.0:
        raise SchemeError("fitted circle or sphere misses the substrate line")
    return math.degrees(math.acos(cos_theta))


def _kasa_sphere(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Algebraic circle or sphere fit through the rows of x: the centre c
    and radius r of the least-squares solution of the linear equations
    |x|^2 = 2 c.x + (r^2 - |c|^2)."""
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, (x * x).sum(axis=1), rcond=None)
    centre = 0.5 * solution[:-1]
    r2 = solution[-1] + centre @ centre
    if not r2 > 0.0:
        raise SchemeError("degenerate circle or sphere fit through the interface points")
    return centre, math.sqrt(r2)
