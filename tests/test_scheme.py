"""Thresholding dynamics: comparison field, volume control, measurements."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ambo import energy as energy_module
from ambo import kernel as kernel_module
from ambo import scheme
from ambo.anisotropy import Anisotropy
from ambo.energy import (
    PhaseField,
    RunOperator,
    ShapeSpec,
    approx_energy,
    indicator_defect,
)
from ambo.errors import NumericalError
from ambo.geometry import build_geometry, make_shape
from ambo.grid import TorusGrid, on_box, periodic_components
from ambo.kernel import (
    EllipticGaussianKernel,
    GaussianKernel,
    SampledKernel,
    convolve_cells,
    scale_kernel,
)
from ambo.scheme import (
    SchemeConfig,
    SchemeError,
    _select,
    comparison_field,
    measure_contact_angle,
    run,
)
from ambo.tensions import ModifiedTensions, RawTensions, extend_substrate
from helpers import best_fit_disk_mismatch, constant_tensions

UNIT_KERNEL = GaussianKernel()

# Relative difference of a state's defect, taken in closed form, from the
# whole grid's sum: at most 5.2e-16 on the closed-form test's phases; on the
# benchmark's droplet and ball3d runs the closed form moved the defect by
# at most 2.3e-15 relative from the earlier sum on the step box.
DEFECT_RTOL = 1e-13


@pytest.fixture(scope="module")
def unit_tensions(grid256):
    return constant_tensions(grid256, 1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def small_band():
    grid = TorusGrid(2, 128)
    return build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)


def _radial(grid, center=(0.5, 0.5)):
    pts = np.stack(grid.meshgrid(), axis=-1)
    return grid.torus_distance(pts, center)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(SchemeError, match="h"):
        SchemeConfig(h=0.0)
    with pytest.raises(SchemeError, match="max_steps"):
        SchemeConfig(h=1e-3, max_steps=0)
    with pytest.raises(SchemeError, match="window"):
        SchemeConfig(h=1e-3, stationarity_window=0)


# ---------------------------------------------------------------------------
# comparison field


def test_single_cell_flips_match_energy_differences():
    """The field is the exact discrete first variation of the energy.

    Flipping one cell z by eps changes the energy by
    (s^d/sqrt(h)) * (eps*phi(z) - pv(z)*K_h(0)*s^d); the quadratic
    self-interaction term is the only correction.
    """
    grid = TorusGrid(2, 128)
    geometry = build_geometry(make_shape("disk", center=(0.5, 0.5), radius=0.3), grid)
    t = extend_substrate(
        RawTensions.from_values("1 + 0.2*x1", 2.0, 1.5),
        geometry,
        Anisotropy(np.eye(2)),
    )
    h = 1e-3
    kh = scale_kernel(UNIT_KERNEL, grid, h)
    op = RunOperator.build(geometry, t, kh)
    measure = grid.cell_measure
    self_weight = kh.values.flat[0] * measure
    inside = np.argwhere(geometry.omega_mask)
    rng = np.random.default_rng(7)

    worst = 0.0
    for _ in range(100):
        u = PhaseField.from_mask(
            geometry, (rng.uniform(size=grid.shape) < 0.5) & geometry.omega_mask
        )
        z = tuple(inside[rng.integers(len(inside))])
        eps = 1.0 if u.values[z] == 0.0 else -1.0
        flipped = u.values.copy()
        flipped[z] += eps

        phi = comparison_field(u, op, op.kh.convolve(u.values))
        predicted = measure / math.sqrt(h) * (eps * phi[z] - t.pv[z] * self_weight)
        actual = approx_energy(
            PhaseField(geometry, flipped), op, op.kh.convolve(flipped)
        ) - approx_energy(u, op, op.kh.convolve(u.values))
        scale = max(abs(actual), abs(predicted), 1e-30)
        worst = max(worst, abs(actual - predicted) / scale)
    assert worst <= 1e-8


def test_substrate_term_cancels_when_tensions_agree(small_band):
    grid = small_band.grid
    kh = scale_kernel(UNIT_KERNEL, grid, 1e-3)
    u = PhaseField.from_mask(
        small_band, _radial(grid, (0.5, 0.5)) < 0.15
    )

    def field_for(substrate_tension):
        t = constant_tensions(grid, 1.0, substrate_tension, substrate_tension)
        op = RunOperator.build(small_band, t, kh)
        return comparison_field(u, op, kh.convolve(u.values))

    assert np.array_equal(field_for(1.7), field_for(0.3))


def test_half_space_field_is_antisymmetric(full_geometry, grid256, unit_tensions):
    # A band covering half the torus: reflecting about either interface
    # exchanges the two phases exactly, so phi is globally odd.
    _, x2 = grid256.meshgrid()
    u = PhaseField.from_mask(full_geometry, (x2 >= 0.25) & (x2 < 0.75))
    kh = scale_kernel(UNIT_KERNEL, grid256, 1e-3)
    op = RunOperator.build(full_geometry, unit_tensions, kh)
    phi = comparison_field(u, op, kh.convolve(u.values))
    rows = np.arange(grid256.n)
    mirrored = (127 - rows) % grid256.n
    assert np.abs(phi[:, rows] + phi[:, mirrored]).max() < 1e-8

    traj = run(u, SchemeConfig(h=1e-3, max_steps=10), unit_tensions, UNIT_KERNEL)
    assert traj.stationary
    assert np.array_equal(traj.final.u.values, u.values)


def test_comparison_field_grid_mismatch(full_geometry, small_band):
    grid = small_band.grid
    op = RunOperator.build(
        small_band,
        constant_tensions(grid, 1.0, 1.0, 1.0),
        scale_kernel(UNIT_KERNEL, grid, 4e-3),
    )
    with pytest.raises(SchemeError, match="grid"):
        comparison_field(PhaseField.zeros(full_geometry), op, op.k_omega)


@pytest.mark.parametrize("kind", ["band", "full"])
@pytest.mark.parametrize("pv", [1.0, 1.3])
def test_constant_pv_field_equals_both_products_bit_for_bit(kind, pv):
    """With g_pv == 1 the two multiplications by 1 are skipped: x * 1.0 ==
    x exactly, so the bytes equal the full formula; other constants take
    both products."""
    grid = TorusGrid(2, 128)
    shape = make_shape("full") if kind == "full" else make_shape("band", lo=0.25, hi=0.95)
    geometry = build_geometry(shape, grid)
    op = RunOperator.build(
        geometry, constant_tensions(grid, pv, 1.2, 0.9), scale_kernel(UNIT_KERNEL, grid, 1e-3)
    )
    assert op.pv_constant == pv
    u = PhaseField.from_mask(geometry, _radial(grid, (0.5, 0.3)) < 0.2)
    ku = op.kh.convolve(u.values)
    expected = (op.k_omega - ku) * pv - pv * ku
    if op.wetting is not None:
        expected += op.wetting
    assert comparison_field(u, op, ku).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# thresholding


def test_select_without_target_is_the_negative_container_set(band_geometry, rng):
    """Unconstrained selection: lambda 0 and the container cells with phi < 0.

    The full tori take the path that does not AND with the all-true mask."""
    geometries = [band_geometry, build_geometry(make_shape("full"), TorusGrid(2, 64))]
    for shape in ("band", "full"):
        params = {"lo": 0.25, "hi": 0.95} if shape == "band" else {}
        geometries.append(
            build_geometry(make_shape(shape, **params), TorusGrid(3, 32), delta=0.1)
        )
    for geometry in geometries:
        phi = rng.normal(size=geometry.grid.shape)
        phi[0] = 0.0  # cells at exactly lambda stay out
        lam, cells = _select(phi, geometry, None)
        assert lam == 0.0
        assert np.array_equal(cells, np.flatnonzero((phi < 0) & geometry.omega_mask))
        assert np.array_equal(_select(phi, geometry, None)[1], cells)
        u = PhaseField.from_support(geometry, cells)
        assert np.array_equal(u.values, np.where(phi < 0, geometry.omega_mask, 0.0))


def test_volume_threshold_order_statistic(disk_geometry, grid256):
    x1, x2 = grid256.meshgrid()
    target = 0.05

    # strictly increasing along one axis: lambda is the exact quantile
    lam, cells = _select(x1 + 0.31 * x2, disk_geometry, target)
    values = np.sort((x1 + 0.31 * x2)[disk_geometry.omega_mask])
    k = math.ceil(target / grid256.cell_measure - 1e-9 * target / grid256.cell_measure)
    assert lam == values[k - 1]
    assert cells.size == k

    # tie-free radial field: the selection is a centered disk with the
    # target volume to one-cell accuracy
    phi = _radial(grid256) + 1e-7 * (x1 - 0.5) + 1e-8 * (x2 - 0.5)
    m = math.pi * 0.15**2
    lam, cells = _select(phi, disk_geometry, m)
    assert np.array_equal(cells, np.flatnonzero((phi <= lam) & disk_geometry.omega_mask))
    selected = PhaseField.from_support(disk_geometry, cells)
    assert abs(selected.volume() - m) < grid256.cell_measure
    assert lam == np.sort(phi[disk_geometry.omega_mask])[
        math.ceil(m / grid256.cell_measure - 1e-9 * m / grid256.cell_measure) - 1
    ]

    # one cell: the minimum; on a constant field ties go to the lowest
    # C-order indices
    lam, cells = _select(phi, disk_geometry, grid256.cell_measure)
    masked = np.where(disk_geometry.omega_mask, phi, np.inf)
    assert lam == masked.min()
    assert np.array_equal(cells, [np.argmin(masked)])
    flat = np.zeros(grid256.shape)
    lam, cells = _select(flat, disk_geometry, 5 * grid256.cell_measure)
    assert lam == 0.0
    assert np.array_equal(cells, disk_geometry.omega_cells[:5])

    # no cell: lambda is -inf and the list is empty
    lam, cells = _select(phi, disk_geometry, 0.0)
    assert lam == -math.inf and cells.size == 0

    with pytest.raises(SchemeError, match="cells"):
        _select(phi, disk_geometry, 1.0)
    with pytest.raises(SchemeError, match="finite"):
        _select(np.full(grid256.shape, np.nan), disk_geometry, 0.01)


def test_preserving_step_matches_sort_oracle(full_geometry, grid256, unit_tensions):
    u = ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)
    kh = scale_kernel(UNIT_KERNEL, grid256, 1e-3)
    op = RunOperator.build(full_geometry, unit_tensions, kh)
    phi = comparison_field(u, op, convolve_cells(kh, u.support, 1.0))  # as state 0's
    m = u.volume()
    k = math.ceil(m / grid256.cell_measure - 1e-9 * m / grid256.cell_measure)
    order = np.argsort(phi.ravel(), kind="stable")[:k]
    oracle = np.zeros(grid256.cell_count, dtype=bool)
    oracle[order] = True

    cfg = SchemeConfig(h=1e-3, preserve_volume=True, max_steps=1)
    traj = run(u, cfg, unit_tensions, UNIT_KERNEL)
    assert np.array_equal(traj.final.u.values > 0, oracle.reshape(grid256.shape))


# ---------------------------------------------------------------------------
# runs


def test_preserved_disk_stays_a_disk(full_geometry, grid256, unit_tensions):
    u = ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)
    m = u.volume()
    cfg = SchemeConfig(h=1e-3, preserve_volume=True, max_steps=200)
    traj = run(u, cfg, unit_tensions, UNIT_KERNEL)
    for row in traj.diagnostics:
        assert abs(row[2] - m) <= grid256.cell_measure
    mismatch, center, radius = best_fit_disk_mismatch(traj.final.u)
    assert mismatch <= 0.02
    assert np.abs(center - 0.5).max() < 0.01
    assert radius == pytest.approx(0.2, rel=0.05)
    assert not np.any(traj.final.u.values[~full_geometry.omega_mask])


def test_unconstrained_disk_shrinks_with_decreasing_energy(
    full_geometry, unit_tensions
):
    u = ShapeSpec.disk((0.5, 0.5), 0.25).indicator(full_geometry)
    traj = run(u, SchemeConfig(h=1e-3, max_steps=30), unit_tensions, UNIT_KERNEL)
    energies = [row[1] for row in traj.diagnostics]
    volumes = [row[2] for row in traj.diagnostics]
    slack = 1e-8 * energies[0]
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))
    assert all(b < a for a, b in zip(volumes, volumes[1:]))
    assert not traj.oscillating and traj.cycle_states == ()


@pytest.mark.parametrize("period", [2, 3])
def test_run_stops_on_a_two_cycle_only(period, full_geometry, unit_tensions, monkeypatch):
    """A step that cycles through fixed fields: period 2 ends the run as a
    2-cycle with both states kept; period 3, whose third field is the
    first moved by one cell, runs to max_steps.  The fields are
    whole-cell translates of one disk, so they have the same energy and
    the run's descent check, which a volume run with constant tensions
    makes, lets the cycle through."""
    a = ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)
    b = PhaseField(full_geometry, np.roll(a.values, -51, axis=0))
    c = np.roll(a.values, 1, axis=1)
    cycle = (a.values, b.values, c)[:period]

    def cycling_step(state, config, op):
        k = state.step + 1
        # A fresh field each time, so the support comes from its values.
        u = PhaseField(full_geometry, cycle[k % period].copy())
        return scheme._make_state(k, u, 0.0, op)

    monkeypatch.setattr(scheme, "step", cycling_step)
    cfg = SchemeConfig(h=1e-3, preserve_volume=True, max_steps=6)
    traj = run(a, cfg, unit_tensions, UNIT_KERNEL)
    assert not traj.stationary
    if period == 3:
        assert not traj.oscillating and traj.cycle_states == ()
        assert traj.final.step == 6
        return
    assert traj.oscillating
    first, second = traj.cycle_states
    assert (first.step, second.step) == (1, 2) and traj.final is second
    assert np.array_equal(first.u.values, b.values)
    assert np.array_equal(second.u.values, a.values)
    assert [row[0] for row in traj.diagnostics] == [0, 1, 2]


def test_volume_run_with_constant_tensions_asserts_descent(
    full_geometry, unit_tensions, monkeypatch
):
    """A broken volume step, which keeps the k cells of largest phi
    instead of the smallest, raises the descent check."""
    select = scheme._select
    monkeypatch.setattr(scheme, "_select", lambda phi, *args: select(-phi, *args))
    u = ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)
    cfg = SchemeConfig(h=1e-3, preserve_volume=True, max_steps=4)
    with pytest.raises(NumericalError, match="energy increased"):
        run(u, cfg, unit_tensions, UNIT_KERNEL)


def test_empty_phase_persists_on_dewetting_substrate(small_band):
    t = constant_tensions(small_band.grid, 1.0, 2.0, 1.0)
    traj = run(
        PhaseField.zeros(small_band), SchemeConfig(h=1e-3, max_steps=8), t, UNIT_KERNEL
    )
    assert traj.stationary
    assert traj.final.volume == 0.0


def test_reflection_symmetry_is_preserved_exactly():
    # Unconstrained thresholding keeps a mirror-symmetric droplet
    # bitwise symmetric; the volume-preserving selector may split a
    # symmetric tie pair, so exactness is only claimed for lambda = 0.
    grid = TorusGrid(2, 256)
    band = build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)
    cap = ShapeSpec.cap(100.0, 0.15, 0.25).indicator(band)
    t = constant_tensions(grid, 1.0, 1.2, 0.9)
    mirrored = (grid.n - np.arange(grid.n)) % grid.n

    symmetric, obstacle_free = [], []

    def watch(state):
        symmetric.append(np.array_equal(state.u.values, state.u.values[mirrored, :]))
        obstacle_free.append(not np.any(state.u.values[~band.omega_mask]))

    run(cap, SchemeConfig(h=1e-3, max_steps=20), t, UNIT_KERNEL, on_state=watch)
    assert len(symmetric) >= 2
    assert all(symmetric)
    assert all(obstacle_free)


def test_run_input_guards(full_geometry, unit_tensions, rng):
    with pytest.raises(SchemeError, match="binary"):
        run(
            PhaseField.random(full_geometry, rng, levels=4),
            SchemeConfig(h=1e-3, max_steps=2),
            unit_tensions,
            UNIT_KERNEL,
        )


def test_trajectory_bookkeeping(full_geometry, unit_tensions):
    u = ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)
    cfg = SchemeConfig(h=1e-3, preserve_volume=True, max_steps=3, stationarity_window=10)
    states = []
    traj = run(u, cfg, unit_tensions, UNIT_KERNEL, on_state=states.append)
    assert len(states) == len(traj.diagnostics) == 4
    assert traj.final is states[-1]
    assert [row[0] for row in traj.diagnostics] == [0, 1, 2, 3]
    assert math.isnan(traj.diagnostics[0][4])  # no threshold before step 1
    assert all(row[5] >= 0.0 for row in traj.diagnostics)  # defects


def test_states_match_fresh_evaluation():
    """Each state's K_h*u and energy equal, bit for bit, a fresh
    evaluation of u: K_h*u by convolve_cells over u's support on the
    whole grid, read on the state's step box.  The defect, which a
    state with a step box takes in closed form, is within DEFECT_RTOL of
    the whole grid's.

    Covers a volume-preserving run with constant tensions and an
    unconstrained run with g_pv varying in x1 on a band, both on step
    boxes, and an unconstrained run with varying g_pv on a disk, whose
    states hold the whole grid; with varying g_pv the comparison field
    convolves g_pv u separately.  The fresh K_h*u is a box product
    here, within 4e-15 of the FFT convolution (measured at most 1.1e-15).
    """
    grid = TorusGrid(2, 128)
    h = 1e-3
    kh = scale_kernel(UNIT_KERNEL, grid, h)
    band = build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)
    disk = build_geometry(make_shape("disk", center=(0.5, 0.5), radius=0.3), grid)
    varying = extend_substrate(
        RawTensions.from_values("1 + 0.2*x1", 2.0, 1.5), disk, Anisotropy(np.eye(2)),
    )
    assert np.ptp(varying.pv) > 0.0
    x1, _ = grid.meshgrid()
    along = ModifiedTensions.from_fields(
        grid, 1.0 + 0.2 * x1, np.full(grid.shape, 1.2), np.full(grid.shape, 0.9)
    )
    cap = ShapeSpec.cap(100.0, 0.15, 0.25).indicator(band)
    unconstrained = SchemeConfig(h=h, max_steps=4, stationarity_window=10)
    cases = [
        (
            cap,
            SchemeConfig(h=h, preserve_volume=True, max_steps=4, stationarity_window=10),
            constant_tensions(grid, 1.0, 1.2, 0.9),
            True,
        ),
        (cap, unconstrained, along, True),
        (ShapeSpec.disk((0.5, 0.5), 0.2).indicator(disk), unconstrained, varying, False),
    ]
    for initial, cfg, t, boxed in cases:
        states = []
        run(initial, cfg, t, UNIT_KERNEL, on_state=states.append)
        assert len(states) == 5
        fresh_op = RunOperator.build(initial.geometry, t, kh)
        assert [state.box is not None for state in states] == [boxed] * 5
        for state in states:
            ku = convolve_cells(kh, state.u.support, np.ones(state.u.support.size))
            assert state.ku.tobytes() == on_box(ku, state.box).tobytes()
            assert np.abs(ku - kh.convolve(state.u.values)).max() <= 4e-15
            assert state.energy == approx_energy(state.u, fresh_op, ku)
            assert state.defect == pytest.approx(
                indicator_defect(ku, initial.geometry), rel=DEFECT_RTOL, abs=0.0
            )


def _random_phases(geometry, rng, count, radius):
    """Random supports: the container cells of a ball at a random centre,
    each kept with probability 0.8; every other centre lies near the
    seam of each axis, so that the phase's box crosses it."""
    grid = geometry.grid
    pts = np.stack(grid.meshgrid(), axis=-1)
    phases = []
    for i in range(count):
        centre = rng.uniform(0.3, 0.7, grid.d) if i % 2 else rng.uniform(-0.04, 0.04, grid.d)
        if geometry.has_substrate:
            centre[1] = 0.5  # inside the band
        ball = grid.torus_distance(pts, centre) < radius
        keep = rng.uniform(size=grid.shape) < 0.8
        phases.append(PhaseField.from_mask(geometry, ball & keep))
    return phases


# sqrt(h) = 1.5 spacings at (3, 48): a ResolutionWarning, but a margin of
# 4 cells, so that the boxes of small balls stay well inside the grid.
@pytest.mark.filterwarnings("ignore::ambo.errors.ResolutionWarning")
@pytest.mark.parametrize("kind", ["band2d", "torus3d"])
def test_narrow_band_steps_equal_whole_grid_steps(kind):
    """On random supports, seam-crossing boxes included, a step on the
    step box passes its certificate and gives the whole-grid step's cells,
    lambda and energy byte for byte, for a volume-preserving and an
    unconstrained step; K_h*u off the box is at most the operator's bound
    U; the defect is within DEFECT_RTOL."""
    if kind == "band2d":
        grid, h = TorusGrid(2, 128), 1e-3
        geometry = build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)
        t = constant_tensions(grid, 1.0, 1.2, 0.9)
    else:
        grid, h = TorusGrid(3, 48), 1e-3
        geometry = build_geometry(make_shape("full"), grid)
        t = constant_tensions(grid, 1.0, 1.0, 1.0)
    kh = scale_kernel(UNIT_KERNEL, grid, h)
    op = RunOperator.build(geometry, t, kh)
    whole = dataclasses.replace(op, margins=None)
    _, bound = kernel_module.tail_margins(kh)
    crossing = 0
    for u in _random_phases(geometry, np.random.default_rng(11), 6, 0.12):
        state = scheme._make_state(0, u, math.nan, op)
        reference = scheme._make_state(0, u, math.nan, whole)
        assert state.box is not None and reference.box is None
        crossing += any(c[-1] - c[0] + 1 > c.size for c in state.box)
        off = np.ones(grid.shape, dtype=bool)
        off[np.ix_(*state.box)] = False
        assert reference.ku[off & geometry.omega_mask].max() <= bound
        assert state.energy == reference.energy
        assert state.defect == pytest.approx(reference.defect, rel=DEFECT_RTOL, abs=0.0)
        for preserve in (True, False):
            cfg = SchemeConfig(h=h, preserve_volume=preserve)
            m = state.volume if preserve else None
            phi = comparison_field(state.u, op, state.ku, state.box)
            assert _select(phi, geometry, m, state.box, op.floor) is not None
            narrow, wide = scheme.step(state, cfg, op), scheme.step(reference, cfg, whole)
            assert np.array_equal(narrow.u.support, wide.u.support)
            assert np.float64(narrow.lam).tobytes() == np.float64(wide.lam).tobytes()
            assert narrow.energy == wide.energy
            assert narrow.defect == pytest.approx(wide.defect, rel=DEFECT_RTOL, abs=0.0)
    assert crossing >= 2


@pytest.mark.filterwarnings("ignore::ambo.errors.ResolutionWarning")
@pytest.mark.parametrize(
    "d, matrix",
    [(2, None), (3, None), (2, ((1.3, 0.0), (0.0, 0.7))), (3, np.diag([1.2, 0.8, 1.1]))],
    ids=["band2d", "torus3d", "band2d_elliptic", "torus3d_elliptic"],
)
def test_closed_form_defect_equals_the_whole_grid_sum(d, matrix):
    """A state on a step box takes its defect in closed form, cell times
    (sum w - sum w^2) with w = K_h*u and sum w^2 from the kernel's Gram
    matrices.  On random supports, seam-crossing boxes included, it is
    within DEFECT_RTOL of indicator_defect of the whole grid's K_h*u,
    for the Gaussian and a diagonal elliptic kernel with unequal axis
    scales, on a band (one axis a Gram R R^T, one circulant) and on the
    3-d torus (all circulant); an empty phase gives 0.0 on both sides,
    and a one-cell phase agrees too."""
    if d == 2:
        grid = TorusGrid(2, 128)
        geometry = build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)
        t = constant_tensions(grid, 1.0, 1.2, 0.9)
    else:
        grid = TorusGrid(3, 48)
        geometry = build_geometry(make_shape("full"), grid)
        t = constant_tensions(grid, 1.0, 1.0, 1.0)
    kernel = UNIT_KERNEL if matrix is None else EllipticGaussianKernel(matrix=matrix)
    kh = scale_kernel(kernel, grid, 1e-3)
    assert kh.factors is not None
    op = RunOperator.build(geometry, t, kh)
    one = np.ravel_multi_index((0,) + (grid.n // 2,) * (d - 1), grid.shape)
    phases = _random_phases(geometry, np.random.default_rng(5), 6, 0.12)
    phases += [PhaseField.from_support(geometry, np.zeros(0, dtype=np.intp))]
    phases += [PhaseField.from_support(geometry, np.array([one]))]
    crossing = 0
    for u in phases:
        state = scheme._make_state(0, u, math.nan, op)
        assert state.box is not None
        crossing += any(c.size and c[-1] - c[0] + 1 > c.size for c in state.box)
        whole = indicator_defect(convolve_cells(kh, u.support, 1.0), geometry)
        assert state.defect == pytest.approx(whole, rel=DEFECT_RTOL, abs=0.0)
        assert (state.defect == 0.0) == (u.support.size == 0)
    assert crossing >= 3


def test_a_failed_certificate_widens_to_the_whole_grid(monkeypatch):
    """With a margin of 0 (tail fraction 1) the bound off the box is
    useless, so every boxed step fails its certificate and widens to the
    whole grid: the run keeps the diagnostics and final field of a run
    without step boxes, at the cost of one extra whole-grid convolution
    per boxed step.  Its defect is taken in closed form, which does not
    depend on the box, so it is within DEFECT_RTOL of the whole grid's."""
    initial, cfg, t = _repeat_cases()[0]
    unconstrained = dataclasses.replace(cfg, preserve_volume=False, max_steps=6)
    for config in (cfg, unconstrained):
        runs = []
        for mode in ("whole", "margin 0"):
            with monkeypatch.context() as patch:
                if mode == "whole":
                    patch.setattr(energy_module, "tail_margins", lambda kh: None)
                else:
                    patch.setattr(kernel_module, "_TAIL", 1.0)
                picks = []
                select = scheme._select
                patch.setattr(
                    scheme, "_select", lambda *a: picks.append(select(*a)) or picks[-1]
                )
                traj = run(initial, config, t, UNIT_KERNEL)
            runs.append((np.asarray(traj.diagnostics), traj.final.u.values, picks))
        (rows, field, picks), (rows0, field0, picks0) = runs
        assert None not in picks
        assert picks0[::2] == [None] * (len(picks0) // 2)  # each boxed try failed
        assert len(picks0) == 2 * len(picks)
        assert rows0[:, :5].tobytes() == rows[:, :5].tobytes()
        assert field0.tobytes() == field.tobytes()
        assert rows0[:, 5] == pytest.approx(rows[:, 5], rel=DEFECT_RTOL, abs=0.0)


def _repeat_cases():
    """A volume-preserving cap that goes stationary, a 3-d ball that
    vanishes and a half-space that is stationary from the start:
    (initial field, config, tensions)."""
    grid = TorusGrid(2, 128)
    band = build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)
    _, x2 = grid.meshgrid()
    grid3 = TorusGrid(3, 32)
    ball = PhaseField.from_mask(
        build_geometry(make_shape("full"), grid3), _radial(grid3, (0.5, 0.5, 0.5)) < 0.25
    )
    return [
        (
            ShapeSpec.cap(100.0, 0.15, 0.25).indicator(band),
            SchemeConfig(h=1e-3, preserve_volume=True, max_steps=40),
            constant_tensions(grid, 1.0, 1.2, 0.9),
        ),
        (ball, SchemeConfig(h=9e-3, max_steps=40), constant_tensions(grid3, 1.0, 1.0, 1.0)),
        (
            PhaseField.from_mask(
                build_geometry(make_shape("full"), grid), (x2 >= 0.25) & (x2 < 0.75)
            ),
            SchemeConfig(h=1e-3, max_steps=40),
            constant_tensions(grid, 1.0, 1.0, 1.0),
        ),
    ]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["band_cap", "ball3d", "half_space"])
def test_repeat_steps_equal_a_full_recompute(case, monkeypatch):
    """A run whose repeat steps cost nothing gives the bits of a loop that
    rebuilds the field, convolves it and selects on the whole grid at
    every step, and its stationary
    tail makes no convolution.  Every changed step convolves the new
    phase afresh: in all three cases by the box product over its
    support, a convolution with no FFT.  The containers are a band and
    the torus, so the run operator takes no FFT either, and the run
    never builds the kernel's samples or transform."""
    initial, cfg, t = _repeat_cases()[case]
    geometry = initial.geometry
    calls, stepped, ffts = [], [], []
    convolve, cells_convolve, step = SampledKernel.convolve, scheme.convolve_cells, scheme.step
    monkeypatch.setattr(
        SampledKernel, "convolve", lambda kh, f: ffts.append(None) or convolve(kh, f)
    )
    monkeypatch.setattr(
        scheme, "convolve_cells", lambda *a: calls.append(None) or cells_convolve(*a)
    )
    monkeypatch.setattr(scheme, "step", lambda s, *a: stepped.append(s.step) or step(s, *a))
    kernels = []
    monkeypatch.setattr(
        scheme, "scale_kernel", lambda *args: kernels.append(scale_kernel(*args)) or kernels[-1]
    )
    convolutions = []  # convolutions made by the time each state is emitted
    traj = run(initial, cfg, t, UNIT_KERNEL, on_state=lambda s: convolutions.append(len(calls)))
    monkeypatch.undo()
    assert len(kernels) == 1 and not {"values", "transform"} & vars(kernels[0]).keys()
    assert traj.stationary
    assert (traj.final.volume == 0.0) == (case == 1)  # the ball vanishes
    steps = len(traj.diagnostics) - 1

    op = RunOperator.build(geometry, t, scale_kernel(UNIT_KERNEL, geometry.grid, cfg.h))
    state = scheme._make_state(0, initial, math.nan, op)
    states = [state]
    for k in range(1, steps + 1):
        # Selected on the whole grid, as a run without step boxes does.
        phi = comparison_field(state.u, op, convolve_cells(op.kh, state.u.support, 1.0))
        m = state.u.volume() if cfg.preserve_volume else None
        lam, cells = _select(phi, geometry, m)
        state = scheme._make_state(k, PhaseField.from_support(geometry, cells), lam, op)
        states.append(state)
    rows = [
        (s.step, s.energy, s.volume, s.interface_cells, s.lam, s.defect) for s in states
    ]
    supports = [s.u.support for s in states]
    assert np.asarray(traj.diagnostics).tobytes() == np.asarray(rows).tobytes()
    assert traj.final.u.values.tobytes() == state.u.values.tobytes()
    assert traj.final.ku.tobytes() == state.ku.tobytes()

    # Constant g_pv: a step convolves the new phase once, unless it keeps
    # the phase; the half-space keeps its phase from state 0.
    kept = [np.array_equal(supports[k], supports[k - 1]) for k in range(1, steps + 1)]
    assert kept[-cfg.stationarity_window:] == [True] * cfg.stationarity_window
    assert kept[0] == (case == 2)
    for k in range(1, steps + 1):
        assert convolutions[k] - convolutions[k - 1] == (not kept[k - 1]), k
    # After such a step the run copies the state instead of stepping.
    copies = [k for k in range(2, steps + 1) if kept[k - 2]]
    assert stepped == [k - 1 for k in range(1, steps + 1) if k not in copies]
    assert len(copies) == cfg.stationarity_window - 1
    assert len(ffts) == 0


def test_negative_zeros_of_the_initial_field_change_no_byte():
    """A user field that stores its zeros as -0.0 gives the states of the
    same field with +0.0 zeros, state 0 included: the run rebuilds it
    from its support."""
    initial, cfg, t = _repeat_cases()[0]
    signed = PhaseField(initial.geometry, np.where(initial.values == 1.0, 1.0, -0.0))
    assert np.signbit(signed.values).any()
    runs = []
    for u in (initial, signed):
        states = []
        traj = run(u, cfg, t, UNIT_KERNEL, on_state=states.append)
        runs.append((np.asarray(traj.diagnostics).tobytes(), states))
    assert runs[0][0] == runs[1][0]
    assert len(runs[0][1]) == len(runs[1][1])
    for a, b in zip(runs[0][1], runs[1][1]):
        assert a.u.values.tobytes() == b.u.values.tobytes(), a.step
        assert a.ku.tobytes() == b.ku.tobytes(), a.step


def test_a_phase_kept_from_state_0_makes_no_convolution(monkeypatch):
    """A half-space is stationary from the start: step 1 keeps the phase
    of state 0 and returns it with the new step index, without a
    convolution, and the window's further steps are copies."""
    initial, cfg, t = _repeat_cases()[2]
    calls, cells_convolve = [], scheme.convolve_cells
    monkeypatch.setattr(
        scheme, "convolve_cells", lambda *a: calls.append(None) or cells_convolve(*a)
    )
    made, states = [], []

    def emitted(state):
        states.append(state)
        made.append(len(calls))

    traj = run(initial, cfg, t, UNIT_KERNEL, on_state=emitted)
    assert traj.stationary and len(states) == 1 + cfg.stationarity_window
    assert made == [1] * len(states)
    assert [s.step for s in states] == list(range(len(states)))
    assert all(s.ku is states[0].ku and s.u is states[0].u for s in states)


@pytest.mark.parametrize("d, n", [(2, 128), (3, 64)])
def test_a_phase_takes_the_box_product_only_up_to_the_fft_budget(d, n, monkeypatch):
    """A random phase spans the whole grid, whose box costs more flops
    than the FFT budget, so its K_h*u is an FFT convolution; a small ball
    takes the box product over its support."""
    grid = TorusGrid(d, n)
    geometry = build_geometry(make_shape("full"), grid)
    scattered = PhaseField.from_mask(
        geometry, np.random.default_rng(3).uniform(size=grid.shape) < 0.5
    )
    dist = grid.torus_distance(np.stack(grid.meshgrid(), axis=-1), np.full(d, 0.5))
    ball = PhaseField.from_mask(geometry, dist < 0.2)
    cells = grid.cell_count
    budget = kernel_module._BOX_FLOPS_PER_FFT[d] * cells * math.log2(cells)
    boxes = [
        kernel_module._box_flops(n, [a.size for a in kernel_module._cell_box(grid, u.support)[0]])
        for u in (scattered, ball)
    ]
    assert boxes[0] > budget >= boxes[1]
    t = constant_tensions(grid, 1.0, 1.0, 1.0)
    op = RunOperator.build(geometry, t, scale_kernel(UNIT_KERNEL, grid, 9e-3))
    ffts = []
    convolve = SampledKernel.convolve
    monkeypatch.setattr(
        SampledKernel, "convolve", lambda kh, f: ffts.append(None) or convolve(kh, f)
    )
    made = []
    for u in (scattered, ball):
        scheme._make_state(0, u, math.nan, op)
        made.append(len(ffts))
    assert made == [1, 1]


def _ball(n, center=(0.51, 0.47, 0.5), radius=0.25):
    grid = TorusGrid(3, n)
    pts = np.stack(grid.meshgrid(), axis=-1)
    geometry = build_geometry(make_shape("full"), grid)
    return PhaseField.from_mask(geometry, grid.torus_distance(pts, center) < radius)


def test_a_3d_ball_run_makes_no_transform(monkeypatch):
    """Perf guard: a 3-d full-torus ball run at n = 32 makes no real FFT:
    K_h*1_container comes from the kernel's axis factors, so the kernel
    is never transformed, and every K_h*u is a box product."""
    initial = _ball(32)
    transforms = []
    rfftn = kernel_module._rfftn
    monkeypatch.setattr(
        kernel_module, "_rfftn", lambda a: transforms.append(a.shape) or rfftn(a)
    )
    traj = run(
        initial,
        SchemeConfig(h=9e-3, max_steps=40),
        constant_tensions(initial.grid, 1.0, 1.0, 1.0),
        UNIT_KERNEL,
    )
    assert traj.stationary and traj.final.volume == 0.0
    assert len(traj.diagnostics) > 5
    assert transforms == []


@pytest.mark.filterwarnings("ignore::ambo.errors.ResolutionWarning")
def test_no_ball_step_fails_the_step_box_certificate(monkeypatch):
    """Perf guard, the ball3d benchmark's run at n = 48 (its smoke size):
    a ball of radius 0.3 on the 3-d torus collapses at h = 1e-3, and
    every step with a nonempty phase selects on its step box and passes
    the certificate, so none widens to the whole grid."""
    initial = _ball(48, center=(0.5, 0.5, 0.5), radius=0.3)
    steps, picks = [], []
    step, select = scheme.step, scheme._select
    monkeypatch.setattr(
        scheme, "step", lambda s, *a: steps.append((s.u.support.size, s.box)) or step(s, *a)
    )
    monkeypatch.setattr(scheme, "_select", lambda *a: picks.append(select(*a)) or picks[-1])
    traj = run(
        initial,
        SchemeConfig(h=1e-3, max_steps=80),
        constant_tensions(initial.grid, 1.0, 1.0, 1.0),
        UNIT_KERNEL,
    )
    assert traj.stationary and traj.final.volume == 0.0
    assert len(steps) >= 20 and None not in picks and len(picks) == len(steps)
    assert all(box is not None for size, box in steps if size)


# Bound on the tracemalloc peak of the n = 32 ball run below, in arrays
# of n^3 doubles: 2.29 measured (3.16 while each state summed its defect
# over the grid, 5.74 while the run operator transformed the kernel and
# the container, 8.68 while the kernel kept its samples and every state
# its dense phase); one more kept array breaks it.
BALL_PEAK_GRID_ARRAYS = 3.0


def test_a_factored_3d_run_holds_no_dense_copies(monkeypatch):
    """Memory guard: a 3-d ball run at n = 32 never builds the samples of
    its factored kernel, no state holds a dense phase array, and the
    traced allocation peak stays under BALL_PEAK_GRID_ARRAYS grid arrays."""
    initial = _ball(32)
    grid = initial.grid
    tensions = constant_tensions(grid, 1.0, 1.0, 1.0)
    kernels = []
    monkeypatch.setattr(
        scheme,
        "scale_kernel",
        lambda *args: kernels.append(scale_kernel(*args)) or kernels[-1],
    )
    dense = []
    last = [initial]

    def check(state):
        # The state just made and the one it replaced; no more are kept.
        dense.extend(state.step for u in (last[0], state.u) if "values" in vars(u))
        last[0] = state.u

    tracemalloc.start()
    try:
        traj = run(
            initial, SchemeConfig(h=9e-3, max_steps=40), tensions, UNIT_KERNEL, on_state=check
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.stationary and len(traj.diagnostics) > 5
    assert dense == [] and "values" not in vars(traj.final.u)
    assert len(kernels) == 1 and "values" not in vars(kernels[0])
    assert peak <= BALL_PEAK_GRID_ARRAYS * grid.cell_count * 8, peak / (grid.cell_count * 8)


# ---------------------------------------------------------------------------
# measurements


def test_best_fit_disk_measurement(full_geometry):
    ideal = ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)
    mismatch, center, radius = best_fit_disk_mismatch(ideal)
    assert mismatch < 0.005
    assert np.abs(center - 0.5).max() < 1e-3
    assert radius == pytest.approx(0.2, rel=1e-2)

    wrapped = ShapeSpec.disk((0.03, 0.5), 0.2).indicator(full_geometry)
    mismatch, center, _ = best_fit_disk_mismatch(wrapped)
    assert mismatch < 0.005
    assert min(abs(center[0] - 0.03), abs(center[0] - 1.03)) < 1e-2

    with pytest.raises(SchemeError, match="empty"):
        best_fit_disk_mismatch(PhaseField.zeros(full_geometry))


def _roll_flood_labels(mask):
    """Component labels by flood fill over periodic neighbours: every cell
    takes the largest label among itself and its np.roll neighbours until
    nothing changes; 0 off the mask."""
    labels = np.where(mask, np.arange(1, mask.size + 1).reshape(mask.shape), 0)
    while True:
        spread = labels.copy()
        for axis in range(mask.ndim):
            for shift in (1, -1):
                np.maximum(spread, np.roll(labels, shift, axis=axis), out=spread)
        spread[~mask] = 0
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _box(shape, *ranges):
    """Boolean mask of a box given per axis as index ranges that may wrap."""
    mask = np.zeros(shape, dtype=bool)
    mask[np.ix_(*[np.arange(lo, hi) % n for (lo, hi), n in zip(ranges, shape)])] = True
    return mask


# Seeded random masks, 2-d and 3-d, odd and even sides, sparse to dense;
# each has face-neighbour cells across the seam of every axis.
_RANDOM_MASKS = [
    np.random.default_rng(seed).random(shape) < density
    for seed, shape, density in [
        (1, (16, 16), 0.4),
        (2, (16, 16), 0.6),
        (3, (9, 13), 0.5),
        (4, (8, 8, 8), 0.3),
        (5, (8, 8, 8), 0.5),
        (6, (5, 7, 6), 0.45),
    ]
]


@pytest.mark.parametrize(
    "mask",
    [
        # one seam: a box across the x1 seam, plus a separate interior box
        _box((16, 16), (-3, 2), (5, 9)) | _box((16, 16), (6, 9), (6, 9)),
        # both seams: a box across the corner is one component, and a
        # strip across the x2 seam beside it is another
        _box((16, 16), (-2, 3), (-2, 3)) | _box((16, 16), (6, 8), (-4, 4)),
        # a 3-d box across the x3 seam, a ring around x1, and a lone cell
        _box((10, 10, 10), (2, 5), (2, 5), (-2, 2))
        | _box((10, 10, 10), (0, 10), (7, 8), (5, 6))
        | _box((10, 10, 10), (6, 7), (2, 3), (5, 6)),
        np.zeros((8, 8), dtype=bool),
        *_RANDOM_MASKS,
    ],
    ids=["one_seam", "both_seams", "3d_seam", "empty"]
    + [f"random{i}" for i in range(len(_RANDOM_MASKS))],
)
def test_periodic_components_match_a_roll_flood_fill(mask):
    count, labels = periodic_components(mask)
    oracle = _roll_flood_labels(mask)
    assert np.array_equal(labels > 0, mask)
    assert count == np.unique(oracle[mask]).size
    assert set(np.unique(labels[mask]).tolist()) == set(range(1, count + 1))
    # The same partition: each label pairs with exactly one oracle label.
    pairs = set(zip(labels[mask].tolist(), oracle[mask].tolist()))
    assert len(pairs) == count


@pytest.fixture(scope="module")
def band3d():
    """The flat substrate of ``band_geometry`` on a 3-d grid, n = 96."""
    return build_geometry(make_shape("band", lo=0.25, hi=0.95), TorusGrid(3, 96))


def _spherical_cap(geometry, angle, radius, center=(0.5, 0.5)):
    """The 3-d cap of a ball standing on the band's lower wall at the
    interior contact angle ``angle`` (degrees), centred at ``center`` in
    (x1, x3)."""
    grid, y0 = geometry.grid, geometry.shape.lo
    x1, x2, x3 = grid.meshgrid()
    yc = y0 - radius * math.cos(math.radians(angle))
    r2 = (
        grid.wrap_delta(x1 - center[0]) ** 2
        + (x2 - yc) ** 2
        + grid.wrap_delta(x3 - center[1]) ** 2
    )
    return PhaseField.from_mask(geometry, (r2 < radius**2) & (x2 >= y0))


# Measured errors: 0.098 / 0.346 / 0.627 degrees for the 2-d caps of
# radius 0.16 at n = 512 (90 / 120 / 60 degrees), 0.038 for a 104-degree
# one that touches x1 = 0 but not the seam's far side, whose widest rows,
# in the fit window, cross the 1/2 level on the seam's edge, and
# 0.070 / 0.668 for the 3-d caps of radius 0.3 at n = 96 (90 / 120 degrees).
@pytest.mark.parametrize(
    "d,angle,tolerance,center",
    [
        (2, 90.0, 1.0, 0.5),
        (2, 120.0, 2.0, 0.5),
        (2, 60.0, 2.0, 0.5),
        (2, 104.0, 1.0, 0.16 - 0.5 / 512),
        (3, 90.0, 0.2, 0.5),
        (3, 120.0, 1.0, 0.5),
    ],
    ids=["90.0-1.0", "120.0-2.0", "60.0-2.0", "seam-104.0-1.0", "3d-90.0-0.2", "3d-120.0-1.0"],
)
def test_contact_angle_on_synthetic_caps(d, angle, tolerance, center, band_geometry, band3d):
    if d == 2:
        geometry = band_geometry
        u = ShapeSpec.cap(angle, 0.16, 0.25, center_x=center).indicator(geometry)
    else:
        geometry, u = band3d, _spherical_cap(band3d, angle, 0.3)
    assert measure_contact_angle(u, geometry) == pytest.approx(angle, abs=tolerance)


def test_contact_angle_ignores_a_component_off_the_substrate(band_geometry):
    """Only the droplet's cells are smoothed: a floating disk across the
    fit window leaves the angle's bits as they are."""
    cap = ShapeSpec.cap(90.0, 0.16, 0.25).indicator(band_geometry)
    disk = ShapeSpec.disk((0.85, 0.3), 0.03).indicator(band_geometry)
    both = PhaseField.from_support(band_geometry, np.union1d(cap.support, disk.support))
    assert measure_contact_angle(both, band_geometry) == measure_contact_angle(
        cap, band_geometry
    )


def test_contact_angle_error_paths(band_geometry, band3d, full_geometry, rng):
    """Each phase that cannot be measured raises a SchemeError that says
    why, never an error from the fit's arithmetic."""
    with pytest.raises(SchemeError, match="empty"):
        measure_contact_angle(PhaseField.zeros(band_geometry), band_geometry)

    floating = ShapeSpec.disk((0.5, 0.6), 0.1).indicator(band_geometry)
    with pytest.raises(SchemeError, match="touch"):
        measure_contact_angle(floating, band_geometry)

    pair = PhaseField.from_mask(
        band_geometry,
        (
            ShapeSpec.cap(90.0, 0.08, 0.25, center_x=0.3).indicator(band_geometry).values
            + ShapeSpec.cap(90.0, 0.08, 0.25, center_x=0.7).indicator(band_geometry).values
        )
        > 0,
    )
    with pytest.raises(SchemeError, match="one component"):
        measure_contact_angle(pair, band_geometry)

    across_x1 = ShapeSpec.cap(90.0, 0.16, 0.25, center_x=0.0).indicator(band_geometry)
    with pytest.raises(SchemeError, match="seam"):
        measure_contact_angle(across_x1, band_geometry)
    with pytest.raises(SchemeError, match="seam"):
        measure_contact_angle(_spherical_cap(band3d, 90.0, 0.2, (0.5, 0.0)), band3d)

    # 0.15 high, so no crossing reaches the window 13 rows above the wall
    with pytest.raises(SchemeError, match="too few interface crossings"):
        measure_contact_angle(_spherical_cap(band3d, 60.0, 0.3), band3d)

    # A column 10 cells wide: the circle through its two straight sides
    # in the window lies well above the wall.
    x1, x2 = band_geometry.grid.meshgrid()
    column = (np.abs(x1 - 0.5) < 5.0 / 512) & (x2 < 0.6)
    with pytest.raises(SchemeError, match="misses the substrate"):
        measure_contact_angle(PhaseField.from_mask(band_geometry, column), band_geometry)

    with pytest.raises(SchemeError, match="band"):
        measure_contact_angle(
            ShapeSpec.disk((0.5, 0.5), 0.1).indicator(full_geometry), full_geometry
        )

    with pytest.raises(SchemeError, match="binary"):
        measure_contact_angle(
            PhaseField.random(band_geometry, rng, levels=4), band_geometry
        )
