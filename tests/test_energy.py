"""Thresholding energy, sharp quadrature, and the comparison lemmas."""

import math
from importlib import resources

import numpy as np
import pytest
import yaml
from scipy.integrate import simpson

from ambo import energy, scheme
from ambo.anisotropy import Anisotropy
from ambo.energy import (
    EnergyError,
    PhaseField,
    RunOperator,
    Segment,
    ShapeSpec,
    approx_energy,
    convergence_study,
    indicator_defect,
    inequality_suite,
    monotonicity_check,
    sharp_energy,
    shift_weighted_sum,
)
from ambo.errors import NumericalError
from ambo.geometry import build_geometry, make_shape
from ambo.grid import TorusGrid
from ambo.kernel import GaussianKernel, SampledKernel, convolve_product, scale_kernel, tail_margins
from ambo.scheme import comparison_field
from ambo.tensions import ModifiedTensions, RawTensions
from helpers import cell_box, constant_tensions

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


@pytest.fixture(scope="module")
def unit_tensions(grid256):
    return constant_tensions(grid256, 1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def disk_field(full_geometry):
    return ShapeSpec.disk((0.5, 0.5), 0.2).indicator(full_geometry)


# ---------------------------------------------------------------------------
# PhaseField


def test_phase_field_basics(disk_geometry, rng):
    zero = PhaseField.zeros(disk_geometry)
    assert zero.volume() == 0.0 and zero.is_binary()

    u = PhaseField.random(disk_geometry, rng, levels=5)
    assert u.values.min() >= 0.0 and u.values.max() <= 1.0
    assert np.all(u.values[~disk_geometry.omega_mask] == 0.0)
    assert len(np.unique(u.values)) <= 5

    mask = disk_geometry.signed_distance > 0.15
    binary = PhaseField.from_mask(disk_geometry, mask)
    assert binary.is_binary()
    assert binary.volume() == mask.sum() * disk_geometry.grid.cell_measure
    assert binary.interface_cell_count() > 0
    assert zero.interface_cell_count() == 0


# The largest phase value that is not 1: no interface count may take it for 1.
BELOW_ONE = np.nextafter(1.0, 0.0)


def test_interface_cells_match_neighbour_oracle(rng):
    """Cells with u = 1 and some of their 2d neighbours != 1, cell by cell."""
    grid = TorusGrid(3, 8)
    values = rng.choice([0.0, 1.0, 1.0, 1.0, 0.5, BELOW_ONE], size=grid.shape)
    expected = 0
    for idx in np.ndindex(grid.shape):
        if values[idx] == 1.0:
            neighbours = [
                values[tuple((c + s * (k == axis)) % grid.n for k, c in enumerate(idx))]
                for axis in range(3)
                for s in (1, -1)
            ]
            expected += any(v != 1.0 for v in neighbours)
    u = PhaseField(build_geometry(make_shape("full"), grid), values)
    assert 0 < u.interface_cell_count() == expected < np.count_nonzero(values == 1.0)


@pytest.mark.parametrize("d, n", [(2, 4), (2, 17), (3, 5), (3, 8)])
@pytest.mark.parametrize(
    "levels", [(0.0, 1.0, 1.0), (0.0, 0.5, 1.0, 1.0), (0.0, 1.0, 1.0, BELOW_ONE)]
)
def test_interface_cells_match_roll_oracle(d, n, levels):
    """The sliced neighbour AND counts the same integer as 2d np.roll copies."""
    grid = TorusGrid(d, n)
    geometry = build_geometry(make_shape("full"), grid)
    for seed in range(4):
        values = np.random.default_rng(seed).choice(levels, size=grid.shape)
        expected = _rolled_interface_count(values)
        assert PhaseField(geometry, values).interface_cell_count() == expected


def _rolled_interface_count(values):
    """The full-grid interface count: {u = 1} minus its cells whose 2d
    neighbours, taken by np.roll, all equal 1."""
    one = values == 1.0
    interior = one.copy()
    for axis in range(one.ndim):
        for shift in (1, -1):
            interior &= np.roll(one, shift, axis=axis)
    return np.count_nonzero(one) - np.count_nonzero(interior)


def _support_cases(grid, rng):
    """Masks of random supports: blobs that cross the seam, sparse cells,
    slabs that fill whole axes or leave one or two layers free, one cell
    and nothing."""
    pts = np.stack(grid.meshgrid(), axis=-1)
    n, d = grid.n, grid.d
    masks = []
    for _ in range(6):
        center = rng.uniform(size=d)
        blob = grid.torus_distance(pts, center) < rng.uniform(0.05, 0.45)
        masks.append(blob & (rng.uniform(size=grid.shape) < 0.9))
    masks += [rng.uniform(size=grid.shape) < p for p in (0.02, 0.3, 0.97)]
    corner = np.zeros(grid.shape, dtype=bool)
    corner[(np.arange(-2, 2)[:, None] % n,) * d] = True  # both ends of every axis
    masks.append(corner)
    for free in (0, 1, 2, 3):
        slab = np.zeros(grid.shape, dtype=bool)
        start = int(rng.integers(n))
        rows = (start + np.arange(n - free)) % n
        slab[rows] = True
        slab[(slice(None), slice(0, n // 3))] = False
        masks.append(slab)
    one = np.zeros(grid.shape, dtype=bool)
    one.flat[rng.integers(grid.cell_count)] = True
    masks += [one, np.zeros(grid.shape, dtype=bool), np.ones(grid.shape, dtype=bool)]
    return masks


@pytest.mark.parametrize("d, n", [(2, 16), (2, 33), (3, 8), (3, 13)])
def test_support_fields_count_their_box_like_the_full_grid(d, n, rng):
    """The interface count over the cell box equals the full-grid count,
    for supports that cross the seam (with gaps), fill an axis, hold one
    cell or none; values, volume and is_binary of the field built from
    the support's cell box equal those of the dense field, and only
    ``values`` builds the dense array.  The same cells given as a mask
    on a larger box (their coordinates plus random others on each axis,
    so with empty layers to cut) give the same cell box, values, volume
    and interface count."""
    grid = TorusGrid(d, n)
    geometry = build_geometry(make_shape("full"), grid)
    for mask in _support_cases(grid, rng):
        u = PhaseField.from_box(geometry, *cell_box(grid, np.flatnonzero(mask)))
        dense = PhaseField(geometry, mask.astype(np.float64))
        expected = _rolled_interface_count(dense.values)
        assert u.interface_cell_count() == dense.interface_cell_count() == expected
        assert u.volume() == dense.volume() and u.is_binary() and dense.is_binary()
        assert "values" not in vars(u)
        assert u.values.tobytes() == dense.values.tobytes()
        box = tuple(
            np.union1d(
                np.flatnonzero(mask.any(axis=tuple(j for j in range(d) if j != k))),
                rng.choice(n, int(rng.integers(n + 1)), replace=False),
            )
            for k in range(d)
        )
        boxed = PhaseField.from_box(geometry, box, mask[np.ix_(*box)])
        assert "values" not in vars(boxed)
        (axes, cut), (want_axes, want) = boxed.cell_box, u.cell_box
        assert all(map(np.array_equal, axes + (cut,), want_axes + (want,)))
        assert not cut.flags.writeable
        assert boxed.interface_cell_count() == expected and boxed.volume() == u.volume()
        assert boxed.values.tobytes() == dense.values.tobytes()


def test_phase_field_rejects_bad_values(disk_geometry, grid256):
    with pytest.raises(EnergyError, match="\\[0, 1\\]|0, 1|range"):
        PhaseField(disk_geometry, np.full(grid256.shape, 1.5))
    # A NaN compares false with both bounds; one container cell is enough.
    nan_cell = np.zeros(grid256.shape)
    nan_cell.flat[np.flatnonzero(disk_geometry.omega_mask)[0]] = np.nan
    with pytest.raises(EnergyError, match="range"):
        PhaseField(disk_geometry, nan_cell)
    outside = np.where(disk_geometry.omega_mask, 0.0, 0.5)
    with pytest.raises(EnergyError, match="outside"):
        PhaseField(disk_geometry, outside)
    # One substrate cell is enough, with the same message.
    one_cell = np.zeros(grid256.shape)
    one_cell.flat[np.flatnonzero(disk_geometry.substrate_mask)[-1]] = 1.0
    with pytest.raises(EnergyError) as rejected:
        PhaseField(disk_geometry, one_cell)
    assert str(rejected.value) == "phase field must vanish outside the container"
    # A cell box is checked alike; from_mask drops the cells off the container.
    with pytest.raises(EnergyError, match="outside"):
        PhaseField.from_box(disk_geometry, None, one_cell == 1.0)
    whole = PhaseField.from_mask(disk_geometry, np.ones(grid256.shape, dtype=bool))
    assert np.array_equal(whole.values, disk_geometry.omega_mask)
    with pytest.raises(EnergyError):
        PhaseField(disk_geometry, np.zeros((4, 4)))
    with pytest.raises(EnergyError, match="levels"):
        PhaseField.random(disk_geometry, np.random.default_rng(0), levels=1)


# ---------------------------------------------------------------------------
# approx_energy


def test_empty_field_without_substrate_is_zero(full_geometry, grid256, unit_tensions):
    kh = scale_kernel(GaussianKernel(), grid256, 1e-3)
    op = RunOperator.build(full_geometry, unit_tensions, kh)
    u = PhaseField.zeros(full_geometry)
    assert approx_energy(u, op, kh.convolve(u.values)) == 0.0


def test_empty_field_with_flat_substrate(band_geometry):
    # Only the substrate-vapor term survives; for a flat boundary it
    # converges to sv * (1/sqrt(pi)) * contact length (two lines here).
    grid = band_geometry.grid
    t = constant_tensions(grid, 1.0, 1.0, 1.3)
    kh = scale_kernel(GaussianKernel(), grid, 1e-3)
    op = RunOperator.build(band_geometry, t, kh)
    u = PhaseField.zeros(band_geometry)
    ku = kh.convolve(u.values)
    energy = approx_energy(u, op, ku)
    target = 1.3 * 2.0 * INV_SQRT_PI
    assert abs(energy - target) / target < 1e-3

    doubled = constant_tensions(grid, 1.0, 1.0, 2.6)
    op = RunOperator.build(band_geometry, doubled, kh)
    assert approx_energy(u, op, ku) == 2.0 * energy


def test_flat_band_matches_separable_oracle(full_geometry, grid256, unit_tensions):
    _, x2 = grid256.meshgrid()
    u = PhaseField.from_mask(full_geometry, (x2 > 0.3) & (x2 < 0.7))
    h = 1e-3
    kh = scale_kernel(GaussianKernel(), grid256, h)
    op = RunOperator.build(full_geometry, unit_tensions, kh)
    energy = approx_energy(u, op, kh.convolve(u.values))

    # The field only depends on x2, so the energy factorises into the
    # kernel's 1D marginal acting on a single row profile.
    n, s = grid256.n, grid256.spacing
    marginal = kh.values.sum(axis=0) * s
    profile = u.values[0, :]
    idx = np.arange(n)
    circulant = marginal[(idx[:, None] - idx[None, :]) % n]
    conv = circulant @ (1.0 - profile) * s
    oracle = (profile * conv).sum() * s * (n * s) / math.sqrt(h)
    assert abs(energy - oracle) <= 1e-10 * oracle


def test_disk_energy_approaches_perimeter_limit(full_geometry, grid256, unit_tensions):
    table = convergence_study(
        ShapeSpec.disk((0.5, 0.5), 0.2),
        unit_tensions,
        GaussianKernel(),
        [4e-3, 1e-3, 2.5e-4],
        full_geometry,
        Anisotropy(np.eye(2) / math.pi),
    )
    errs = [row.rel_err for row in table.rows]
    assert len(errs) == 3
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.01
    assert table.order > 0.4
    assert table.rows[0].sharp == pytest.approx(2 * math.pi * 0.2 * INV_SQRT_PI, rel=1e-10)


def test_energy_is_linear_in_tensions(full_geometry, grid256, rng):
    u = PhaseField.random(full_geometry, rng, levels=6)
    kh = scale_kernel(GaussianKernel(), grid256, 1e-3)
    ku = kh.convolve(u.values)
    single, double = (
        approx_energy(
            u,
            RunOperator.build(
                full_geometry, constant_tensions(grid256, pv, 1.0, 1.0), kh
            ),
            ku,
        )
        for pv in (1.0, 2.0)
    )
    assert double == 2.0 * single


def test_exchange_symmetry(full_geometry, grid256, unit_tensions, rng):
    u = PhaseField.random(full_geometry, rng, levels=6)
    kh = scale_kernel(GaussianKernel(), grid256, 1e-3)
    op = RunOperator.build(full_geometry, unit_tensions, kh)
    one = approx_energy(u, op, kh.convolve(u.values))
    flipped = PhaseField(full_geometry, 1.0 - u.values)
    swapped = approx_energy(flipped, op, kh.convolve(flipped.values))
    assert abs(one - swapped) <= 1e-10 * one


def test_energy_rejects_mismatched_grids(full_geometry, grid256, unit_tensions):
    small = TorusGrid(2, 64)
    kh = scale_kernel(GaussianKernel(), small, 4e-3)
    with pytest.raises(EnergyError, match="grid"):
        RunOperator.build(full_geometry, unit_tensions, kh)
    small_geometry = build_geometry(make_shape("full"), small)
    op = RunOperator.build(
        small_geometry, constant_tensions(small, 1.0, 1.0, 1.0), kh
    )
    with pytest.raises(EnergyError, match="grid"):
        approx_energy(PhaseField.zeros(full_geometry), op, np.zeros(grid256.shape))


# ---------------------------------------------------------------------------
# sharp_energy


def test_sharp_disk_closed_form():
    gamma = Anisotropy(0.6**2 * np.eye(2))
    value = sharp_energy(ShapeSpec.disk((0.5, 0.5), 0.2), 2.0, gamma)
    assert value == pytest.approx(2.0 * 0.6 * 2 * math.pi * 0.2, rel=1e-10)


def test_sharp_cap_closed_form():
    theta = math.radians(120.0)
    radius = 0.2
    cap = ShapeSpec.cap(120.0, radius, 0.25, dry_span=(0.05, 0.95))
    half_chord = radius * math.sin(theta)
    expected = (
        1.0 * 2 * radius * theta
        + 0.7 * 2 * half_chord
        + 0.4 * ((0.5 - half_chord - 0.05) + (0.95 - 0.5 - half_chord))
    )
    value = sharp_energy(cap, 1.0, Anisotropy(np.eye(2)), gamma_sp=0.7, gamma_sv=0.4)
    assert value == pytest.approx(expected, rel=1e-10)

    with pytest.raises(EnergyError, match="gamma_sp"):
        sharp_energy(cap, 1.0, Anisotropy(np.eye(2)), gamma_sv=0.4)


def test_sharp_ellipse_against_dense_quadrature():
    """The adaptive arc quadrature of a circle under a sheared elliptic
    gamma and a varying density, against a dense Simpson rule."""
    gamma = Anisotropy(((1.4, 0.3), (0.3, 0.9)))
    center, r = (0.45, 0.55), 0.17
    ts = np.linspace(0.0, 2 * math.pi, (1 << 17) + 1)
    pts = np.stack([center[0] + r * np.cos(ts), center[1] + r * np.sin(ts)], axis=-1)
    velocity = np.stack([-r * np.sin(ts), r * np.cos(ts)], axis=-1)
    speed = np.linalg.norm(velocity, axis=-1)
    normal = np.stack([velocity[:, 1], -velocity[:, 0]], axis=-1) / speed[:, None]
    integrand = (1.0 + 0.2 * pts[:, 0]) * gamma(normal) * speed
    oracle = simpson(integrand, x=ts)

    value = sharp_energy(ShapeSpec.disk(center, r), "1 + 0.2*x1", gamma)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_shape_spec_guards():
    with pytest.raises(EnergyError, match="free arc"):
        ShapeSpec(free=())
    with pytest.raises(EnergyError, match="closed"):
        ShapeSpec(free=(Segment((0.2, 0.2), (0.6, 0.2)),))
    with pytest.raises(EnergyError, match="contact angle"):
        ShapeSpec.cap(180.0, 0.2, 0.25)
    degenerate = ShapeSpec(free=(Segment((0.3, 0.3), (0.3, 0.3)),))
    with pytest.raises(EnergyError, match="stationary"):
        sharp_energy(degenerate, 1.0, Anisotropy(np.eye(2)))


@pytest.mark.parametrize(
    "center, radius",
    [((0.5, 0.5), 0.2), ((0.02, 0.97), 0.13), ((0.999, 0.5), 0.3), ((0.3, 0.6), 0.7)],
    ids=["inside", "corner", "seam", "wider_than_the_torus"],
)
def test_disk_indicator_matches_the_full_grid_mask(center, radius, full_geometry):
    """Rasterised over its periodic box, a disk has the full grid's mask,
    across the seam too."""
    grid = full_geometry.grid
    inside = grid.torus_distance(np.stack(grid.meshgrid(), axis=-1), center) < radius
    u = ShapeSpec.disk(center, radius).indicator(full_geometry)
    assert np.array_equal(np.flatnonzero(u.values), np.flatnonzero(inside))


@pytest.mark.parametrize("center_x", [0.5, 0.03])
def test_cap_indicator_matches_the_full_grid_mask(center_x, band_geometry):
    """A cap on the band, also one across the seam, against the mask of
    every cell's distance and height."""
    cap = ShapeSpec.cap(120.0, 0.15, 0.25, center_x=center_x)
    grid = band_geometry.grid
    pts = np.stack(grid.meshgrid(), axis=-1)
    arc = cap.free[0]
    inside = (grid.torus_distance(pts, arc.center) < arc.radius) & (pts[..., 1] >= 0.25)
    expected = np.flatnonzero(inside & band_geometry.omega_mask)
    assert np.array_equal(np.flatnonzero(cap.indicator(band_geometry).values), expected)


def test_cap_indicator_is_binary_cap(band_geometry):
    cap = ShapeSpec.cap(120.0, 0.15, 0.25)
    u = cap.indicator(band_geometry)
    assert u.is_binary()
    assert 0.0 < u.volume() < math.pi * 0.15**2
    assert np.all(u.values[~band_geometry.omega_mask] == 0.0)


# ---------------------------------------------------------------------------
# monotonicity in h


def test_monotonicity_constant_tensions_random_fields(full_geometry, unit_tensions):
    fields = [
        PhaseField.random(full_geometry, np.random.default_rng(seed), levels=5)
        for seed in range(20)
    ]
    (results,) = monotonicity_check(fields, unit_tensions, GaussianKernel(), [1e-3], [2])
    assert len(results) == 20
    for result in results:
        assert result.lhs <= result.rhs * (1.0 + 1e-10)
    assert max(r.c_est for r in results) <= 1e-10


def test_monotonicity_empty_field(full_geometry, unit_tensions):
    ((result,),) = monotonicity_check(
        [PhaseField.zeros(full_geometry)], unit_tensions, GaussianKernel(), [1e-3], [2]
    )
    assert result.lhs == result.rhs == 0.0
    assert result.c_est == 0.0


def test_monotonicity_varying_tensions_bounded(full_geometry, grid256, disk_field):
    x1, _ = grid256.meshgrid()
    t = ModifiedTensions.from_fields(
        grid256, 1.0 + 0.2 * x1, np.ones(grid256.shape), np.ones(grid256.shape)
    )
    estimates = [
        result.c_est
        for (result,) in monotonicity_check(
            [disk_field], t, GaussianKernel(), [1e-3], [2, 3, 4]
        )
    ]
    assert len(estimates) == 3
    assert all(np.isfinite(c) and 0.0 <= c <= 1.0 for c in estimates)


def test_monotonicity_rejects_bad_n(full_geometry, unit_tensions):
    with pytest.raises(EnergyError, match="N"):
        monotonicity_check(
            [PhaseField.zeros(full_geometry)],
            unit_tensions,
            GaussianKernel(),
            [1e-3],
            [2, 0],
        )


def test_suites_reject_empty_and_mixed_batches(full_geometry, disk_geometry, unit_tensions):
    with pytest.raises(EnergyError, match="at least one field"):
        monotonicity_check([], unit_tensions, GaussianKernel(), [1e-3], [2])
    mixed = [PhaseField.zeros(full_geometry), PhaseField.zeros(disk_geometry)]
    with pytest.raises(EnergyError, match="one geometry"):
        inequality_suite(mixed, GaussianKernel(), [1e-3])
    with pytest.raises(EnergyError, match="one geometry"):
        shift_weighted_sum(mixed, (np.ones(full_geometry.grid.shape),))


def test_suite_batches_match_single_field_calls(grid64):
    geometry = build_geometry(make_shape("full"), grid64)
    tensions = constant_tensions(grid64, 1.0, 1.0, 1.0)
    fields = [
        PhaseField.random(geometry, np.random.default_rng(7), levels=4),
        ShapeSpec.disk((0.5, 0.5), 0.2).indicator(geometry),
        PhaseField.zeros(geometry),
    ]
    kernel, h = GaussianKernel(), 4e-3
    (batch,) = monotonicity_check(fields, tensions, kernel, [h], [2])
    assert batch == [
        monotonicity_check([u], tensions, kernel, [h], [2])[0][0] for u in fields
    ]
    assert batch[0] != batch[1]
    (reports,) = inequality_suite(fields, kernel, [h])
    assert reports == [inequality_suite([u], kernel, [h])[0][0] for u in fields]
    assert reports[0] != reports[1]


def test_monotonicity_check_matches_fresh_operators(grid128):
    """Each (h, N) entry equals E_h and E_{N^2 h} of operators built for it
    alone, although the pairs share step sizes (4e-3 = 2^2 * 1e-3, and
    N = 1 asks for h twice)."""
    geometry = build_geometry(make_shape("disk", center=(0.5, 0.5), radius=0.3), grid128)
    x1, x2 = grid128.meshgrid()
    tensions = ModifiedTensions.from_fields(
        grid128,
        1.3 + 0.35 * np.cos(4 * math.pi * (x1 - 0.5)) + 0.35 * np.cos(4 * math.pi * x2),
        np.full(grid128.shape, 1.2),
        np.full(grid128.shape, 0.9),
    )
    fields = [
        PhaseField.random(geometry, np.random.default_rng(5), levels=4),
        ShapeSpec.disk((0.5, 0.5), 0.15).indicator(geometry),
    ]
    kernel, h_values, factors = GaussianKernel(), [1e-3, 4e-3], [1, 2]
    checked = monotonicity_check(fields, tensions, kernel, h_values, factors)
    pairs = [(h, N) for h in h_values for N in factors]
    assert len(checked) == len(pairs)

    def fresh(u, h):
        kh = scale_kernel(kernel, grid128, h)
        op = RunOperator.build(geometry, tensions, kh)
        return approx_energy(u, op, kh.convolve(u.values))

    for (h, N), results in zip(pairs, checked):
        assert len(results) == len(fields)
        for u, result in zip(fields, results):
            rhs, lhs = fresh(u, h), fresh(u, N * N * h)
            assert (result.lhs, result.rhs) == (lhs, rhs)
            assert result.c_est == max(0.0, (lhs - rhs) / (rhs * N * math.sqrt(h)))


def test_constant_tension_violation_raised_at_the_first_pair(
    full_geometry, unit_tensions, monkeypatch
):
    """Energies are shared across the pairs, but a miss is still reported at
    the first (h, N, field) in order: here N = 2 before N = 3."""
    h = 1e-3
    table = {h: [1.0, 1.0], 4 * h: [1.0, 1.5], 9 * h: [2.0, 1.0]}
    monkeypatch.setattr(
        energy,
        "_energies",
        lambda fields, spectra, geometry, tensions, kernel, step: table[step],
    )
    fields = [PhaseField.zeros(full_geometry)] * 2
    first = r"E_\(N\^2 h\)=1.5 > E_h=1.0 .* at N=2, h=0.001"
    with pytest.raises(NumericalError, match=first):
        monotonicity_check(fields, unit_tensions, GaussianKernel(), [h], [2, 3])


def test_multi_h_inequality_suite_equals_single_h_calls(grid64):
    """One call over several h, sharing one shift sum, equals one call per h
    bit for bit; a repeated h gives the same reports twice."""
    geometry = build_geometry(make_shape("disk", center=(0.5, 0.5), radius=0.3), grid64)
    rng = np.random.default_rng(11)
    fields = [PhaseField.random(geometry, rng, levels=6) for _ in range(2)]
    kernel, h_values = GaussianKernel(), [1e-2, 4e-3, 1e-2]
    reports = inequality_suite(fields, kernel, h_values)
    assert reports == [inequality_suite(fields, kernel, [h])[0] for h in h_values]
    assert [[r.h for r in per_h] for per_h in reports] == [[h, h] for h in h_values]
    assert reports[0][0] != reports[1][0]


# ---------------------------------------------------------------------------
# the four integral inequalities


def test_shift_sum_matches_brute_force():
    """Layer-cake shift sums equal explicit double sums over shifts and cells.

    The container is a disk, not the whole torus, so the sum over x in
    the container differs from the sum over the torus; one weight array is
    asymmetric, so a shift taken with the wrong sign shows.  A field on
    the whole torus whose lowest value is 1/4, not 0, shows a layer-cake
    sum that does not start from its lowest value.
    """
    grid = TorusGrid(2, 32)
    geometry = build_geometry(
        make_shape("disk", center=(0.5, 0.5), radius=0.2), grid, delta=0.1
    )
    rng = np.random.default_rng(7)
    weights = (
        scale_kernel(GaussianKernel(), grid, 1e-2).values,
        rng.uniform(0.0, 1.0, size=grid.shape),
    )
    random = PhaseField.random(geometry, rng, levels=6)
    assert np.unique(random.values).size == 6
    torus = build_geometry(make_shape("full"), grid)
    raised = PhaseField(torus, 0.25 + np.round(rng.uniform(size=grid.shape) * 4) / 8)
    assert np.unique(raised.values).tolist() == [0.25, 0.375, 0.5, 0.625, 0.75]
    for fields in [(random, PhaseField.zeros(geometry)), (raised,)]:
        inside = fields[0].geometry.omega_mask
        got = shift_weighted_sum(fields, weights)
        assert len(got) == len(fields)
        for u, sums in zip(fields, got):
            expected = [0.0, 0.0]
            for y in np.ndindex(grid.shape):
                shifted = np.roll(u.values, tuple(-c for c in y), axis=(0, 1))
                count = np.abs(shifted - u.values)[inside].sum()
                for i, w in enumerate(weights):
                    expected[i] += w[y] * count
            assert len(sums) == 2
            for g, e in zip(sums, expected):
                assert g == pytest.approx(e, rel=1e-12, abs=0.0)


def test_inequalities_vanish_on_empty_field(full_geometry):
    ((report,),) = inequality_suite(
        [PhaseField.zeros(full_geometry)], GaussianKernel(), [1e-3]
    )
    assert report.h == 1e-3
    for result in report.results:
        assert result.lhs == result.rhs == 0.0


def test_inequalities_on_disk(disk_field):
    ((report,),) = inequality_suite([disk_field], GaussianKernel(), [1e-3])
    assert all(r.ok() for r in report.results)
    by_name = {r.name: r for r in report.results}
    assert set(by_name) == {"shift-bound", "jensen", "defect-bound", "gradient-bound"}
    # two of the four have genuine margin on a smooth set
    assert by_name["defect-bound"].slack > 0.0
    assert by_name["gradient-bound"].slack > 0.0


@pytest.mark.parametrize("h", [4e-3, 1e-3])
def test_inequalities_on_random_fields(full_geometry, h):
    fields = [
        PhaseField.random(full_geometry, np.random.default_rng(seed), levels=5)
        for seed in range(3)
    ]
    (reports,) = inequality_suite(fields, GaussianKernel(), [h])
    assert len(reports) == 3
    for report in reports:
        assert all(r.ok() for r in report.results), [
            (r.name, r.slack) for r in report.results
        ]
        assert min(r.slack for r in report.results) >= -1e-8


# ---------------------------------------------------------------------------
# convergence_study plumbing


def test_study_guards_resolution_and_ordering(grid64, unit_tensions):
    geometry = build_geometry(make_shape("full"), grid64)
    tensions = constant_tensions(grid64, 1.0, 1.0, 1.0)
    spec = ShapeSpec.disk((0.5, 0.5), 0.2)
    gamma = Anisotropy(np.eye(2) / math.pi)

    with pytest.raises(EnergyError, match="decreasing"):
        convergence_study(spec, tensions, GaussianKernel(), [1e-3, 4e-3], geometry, gamma)

    # sqrt(h) < 3 spacings at n=64 for both entries: dropped with a
    # warning, leaving no row.
    with pytest.warns(UserWarning, match="under-resolved"):
        with pytest.raises(EnergyError, match="one resolvable"):
            convergence_study(spec, tensions, GaussianKernel(), [1e-3, 2.5e-4], geometry, gamma)


# ---------------------------------------------------------------------------
# indicator defect


def test_indicator_defect_values(full_geometry, grid256, disk_field):
    assert indicator_defect(disk_field.values, full_geometry) == 0.0
    half = np.where(full_geometry.omega_mask, 0.5, 0.0)
    assert indicator_defect(half, full_geometry) == pytest.approx(
        0.25 * full_geometry.omega_mask.sum() * grid256.cell_measure, rel=1e-12
    )

    defects = {}
    for h in (4e-3, 1e-3):
        kh = scale_kernel(GaussianKernel(), grid256, h)
        defects[h] = indicator_defect(kh.convolve(disk_field.values), full_geometry)
    assert 0.0 < defects[1e-3] < defects[4e-3]


# ---------------------------------------------------------------------------
# the run operator's constants against the full masked formulas


def _masked_oracles(u, op, ku):
    """E_h, the comparison field and the defect as the full masked formulas.

    K_h*1_container and K_h*1_substrate are FFT convolutions here, and
    E_h is the exactly rounded (``math.fsum``) sum of the three cellwise
    terms over the container.
    """
    t = op.tensions
    geometry = u.geometry
    inside = geometry.omega_mask
    k_o = op.kh.convolve(inside.astype(np.float64))
    k_s = op.kh.convolve(geometry.substrate_mask.astype(np.float64))
    complement = inside.astype(np.float64) - u.values
    terms = (
        t.pv * u.values * (k_o - ku),
        t.sp * u.values * k_s,
        t.sv * complement * k_s,
    )
    total = math.fsum(np.concatenate([term[inside] for term in terms]))
    energy = total * op.grid.cell_measure / math.sqrt(op.kh.h)
    k_pv_u = op.kh.convolve(t.pv * u.values)
    phi = t.pv * (k_o - ku) - k_pv_u + (t.sp - t.sv) * k_s
    defect = float((ku[inside] * (1.0 - ku[inside])).sum() * op.grid.cell_measure)
    return energy, phi, defect


@pytest.mark.parametrize(
    "kind, d, n, h",
    [("full", 2, 64, 4e-3), ("full", 3, 32, 1e-2), ("band", 2, 64, 4e-3)],
)
@pytest.mark.parametrize("binary", [True, False])
def test_energy_field_and_defect_equal_masked_formulas(kind, d, n, h, binary, monkeypatch):
    """The defect keeps the masked formula's bytes.  The operator takes
    K_h*1_container and K_h*1_substrate from the axis factors, where the
    masked formulas take FFT convolutions, and K_h*(g_pv u) is the box
    product over u's support, so the comparison field is checked within
    1e-14 absolute (g_pv u <= 2; measured <= 1.2e-15).

    E_h is summed over the phase cells plus the operator's constant, in
    another order than the masked formula, so it is checked against the
    exactly rounded sum: within 1e-14 relative (measured <= 2.3e-16).
    """
    grid = TorusGrid(d, n)
    shape = make_shape("full") if kind == "full" else make_shape("band", lo=0.25, hi=0.75)
    geometry = build_geometry(shape, grid)
    assert geometry.substrate_mask.any() == geometry.has_substrate == (kind == "band")
    rng = np.random.default_rng(7)
    # Varying g_pv takes the comparison field's second convolution.
    tensions = ModifiedTensions.from_fields(
        grid, *(rng.uniform(lo, lo + 1.0, grid.shape) for lo in (1.0, 0.5, 0.5))
    )
    if binary:
        dist = grid.torus_distance(np.stack(grid.meshgrid(), axis=-1), np.full(d, 0.5))
        u = PhaseField.from_mask(geometry, dist < 0.2)
    else:
        u = PhaseField.random(geometry, rng, levels=9)
    convolved = []
    convolve = SampledKernel.convolve
    monkeypatch.setattr(
        SampledKernel, "convolve", lambda kh, f: convolved.append(f) or convolve(kh, f)
    )
    op = RunOperator.build(geometry, tensions, scale_kernel(GaussianKernel(), grid, h))
    monkeypatch.undo()
    # A band and the torus are products of per-axis sets: no FFT.
    assert len(convolved) == 0
    ku = op.kh.convolve(u.values)

    energy, phi, defect = _masked_oracles(u, op, ku)
    assert approx_energy(u, op, ku) == pytest.approx(energy, rel=1e-14, abs=0.0)
    made, cells_convolve, convolve = [], scheme.convolve_cells, SampledKernel.convolve
    monkeypatch.setattr(
        scheme, "convolve_cells", lambda *a: made.append("cells") or cells_convolve(*a)
    )
    monkeypatch.setattr(
        SampledKernel, "convolve", lambda kh, f: made.append("fft") or convolve(kh, f)
    )
    assert np.abs(comparison_field(u, op, ku) - phi).max() <= 1e-14
    assert made == ["cells"]
    assert indicator_defect(ku, geometry) == defect
    # On the band the substrate terms are there and are not zero.
    assert (op.wetting is None) == (op.dry_energy == 0.0) == (kind == "full")
    if kind == "band":
        assert np.any(op.wetting[geometry.omega_mask] != 0.0)


def _extend_disk_scales() -> list:
    """The diagonal of the elliptic kernel of the extend_disk preset."""
    text = (resources.files("ambo") / "presets" / "extend_disk.yaml").read_text()
    return list(np.diagonal(yaml.safe_load(text)["kernel"]["matrix"]))


@pytest.mark.parametrize(
    "d, n, h", [(2, 64, 4e-3), (3, 64, 2.5e-3)], ids=["2d", "3d"]
)
@pytest.mark.parametrize(
    "kind, bounds",
    [("full", {}), ("band", {"lo": 0.25, "hi": 0.95}), ("band", {"lo": 0.0, "hi": 0.6})],
    ids=["torus", "band", "band_at_seam"],
)
@pytest.mark.parametrize("elliptic", [False, True], ids=["gaussian", "elliptic"])
def test_operator_fields_of_a_product_container_equal_the_fft(d, n, h, kind, bounds, elliptic):
    """On the torus and a band, a diagonal Gaussian's run operator takes
    K_h*1_container and K_h*1_substrate from the kernel's axis factors,
    with no kernel sample or transform; they equal the FFT convolutions
    within 1e-14 of their maxima, and dry_energy within 1e-14 relative
    (measured <= 1.2e-15 and <= 1.8e-15 at (2, 512) and (3, 96)).  A band
    from x2 = 0 leaves the substrate on both sides of the seam, so the
    1-d convolution wraps it.  The elliptic kernel is extend_disk's, with
    a unit third scale in 3-d."""
    grid = TorusGrid(d, n)
    geometry = build_geometry(make_shape(kind, **bounds), grid)
    kernel = GaussianKernel()
    if elliptic:
        kernel = GaussianKernel(np.diag((_extend_disk_scales() + [1.0])[:d]))
    tensions = constant_tensions(grid, 1.0, 1.2, 0.9)
    kh = scale_kernel(kernel, grid, h)
    op = RunOperator.build(geometry, tensions, kh)
    assert not {"values", "transform"} & vars(kh).keys()

    k_omega = kh.convolve(geometry.omega_mask.astype(np.float64))
    assert np.abs(op.k_omega - k_omega).max() <= 1e-14 * k_omega.max()
    if kind == "full":
        assert op.omega_constant is not None and op.k_omega.strides == (0,) * d
        assert op.wetting is None and op.dry_energy == 0.0
        return
    assert op.omega_constant is None
    if bounds["lo"] == 0.0:
        assert geometry.substrate_mask[:, [0, n - 1]].all()
    k_substrate = kh.convolve(geometry.substrate_mask.astype(np.float64))
    wetting = (tensions.sp - tensions.sv) * k_substrate
    assert np.abs(op.wetting - wetting).max() <= 1e-14 * np.abs(wetting).max()
    dry = float((tensions.sv * k_substrate)[geometry.omega_mask].sum())
    assert op.dry_energy == pytest.approx(dry, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d, n, h", [(2, 64, 4e-3), (3, 64, 2.5e-3)], ids=["2d", "3d"])
@pytest.mark.parametrize("sp", ["1.25", "1.25 + 0.1*x1"], ids=["constant", "varying"])
def test_a_band_operator_with_constant_substrate_tensions_holds_profiles(d, n, h, sp):
    """On a band whose g_sp and g_sv are constants, sampled as zero-stride
    views, the run operator holds ``wetting`` as the read-only broadcast
    of its x2 profile; a g_sp that reads x1 keeps the full array.  Either
    way ``wetting``, ``dry_energy`` and ``floor`` equal the full-grid
    formulas bit for bit."""
    grid = TorusGrid(d, n)
    geometry = build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)
    raw = RawTensions.from_values("1", sp, "0.75")
    tensions = ModifiedTensions.from_fields(
        grid, *(raw.sample(which, grid) for which in ("pv", "sp", "sv"))
    )
    kh = scale_kernel(GaussianKernel(), grid, h)
    op = RunOperator.build(geometry, tensions, kh)

    # The full-grid formulas, with K_h*1_substrate from the axis factors.
    slab = tuple(~e if k == 1 else np.ones_like(e) for k, e in enumerate(geometry.extent))
    k_substrate = convolve_product(kh, slab)
    wetting = (tensions.sp - tensions.sv) * k_substrate
    dry = float((tensions.sv * k_substrate)[geometry.omega_mask].sum())
    base = tensions.pv * op.k_omega
    base += wetting
    pv_max = float(tensions.pv.max())
    floor = (
        float(base[geometry.omega_mask].min())
        - 2.0 * pv_max * tail_margins(kh)[1]
        - 1e-12 * (pv_max + float(np.abs(wetting).max()))
    )
    assert not op.wetting.flags.writeable
    if sp == "1.25":
        assert op.wetting.strides == tuple(0 if k != 1 else 8 for k in range(d))
    else:
        assert 0 not in op.wetting.strides
    assert op.wetting.shape == grid.shape and op.wetting.tobytes() == wetting.tobytes()
    assert op.dry_energy == dry and op.floor == floor
