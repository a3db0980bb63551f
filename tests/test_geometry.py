"""Grid and geometry tests: masks, signed distance, normals, strips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambo.geometry import (
    GeometryError,
    TorusGrid,
    band_mask,
    boundary_layer_mask,
    build_geometry,
    make_shape,
)


# --- grid -------------------------------------------------------------------

def test_grid_spacing_times_n_is_one():
    for n in (4, 64, 256, 1024):
        grid = TorusGrid(2, n)
        assert grid.spacing * grid.n == 1.0


def test_grid_rejects_bad_dimension_and_size():
    with pytest.raises(ValueError):
        TorusGrid(1, 64)
    with pytest.raises(ValueError):
        TorusGrid(4, 64)
    with pytest.raises(ValueError):
        TorusGrid(2, 3)


def test_grid_shape_and_cell_measure():
    grid = TorusGrid(3, 16)
    assert grid.shape == (16, 16, 16)
    assert grid.cell_count == 16**3
    assert grid.cell_measure == pytest.approx(1.0 / 16**3, rel=1e-15)


@given(st.floats(-10.0, 10.0))
def test_wrap_delta_lands_in_centered_interval(dx):
    grid = TorusGrid(2, 32)
    wrapped = grid.wrap_delta(np.array([dx])).item()
    assert -0.5 <= wrapped <= 0.5
    # wrapping changes the value by an integer only
    assert (dx - wrapped) == pytest.approx(round(dx - wrapped), abs=1e-9)


# --- masks and signed distance ----------------------------------------------

def test_disk_area_matches_analytic(disk_geometry):
    grid = disk_geometry.grid
    area = disk_geometry.omega_mask.sum() * grid.cell_measure
    assert abs(area - math.pi * 0.3**2) < 2.0 / grid.n


def test_masks_are_disjoint(disk_geometry):
    assert not np.any(disk_geometry.omega_mask & disk_geometry.substrate_mask)


def test_signed_distance_sign_matches_mask(disk_geometry):
    inside = disk_geometry.signed_distance > 0.0
    assert np.array_equal(inside, disk_geometry.omega_mask)


def test_omega_cells_list_the_container(disk_geometry, full_geometry):
    for geometry in (disk_geometry, full_geometry):
        cells = geometry.omega_cells
        assert np.array_equal(cells, np.flatnonzero(geometry.omega_mask))
        assert not cells.flags.writeable
        assert geometry.omega_cells is cells
        assert geometry.omega_cell_count == cells.size == geometry.omega_mask.sum()


def test_full_torus_has_no_substrate(full_geometry):
    assert full_geometry.substrate_mask.sum() == 0
    assert full_geometry.omega_mask.all()


def test_full_torus_holds_no_per_cell_distance_or_normals(full_geometry):
    grid = full_geometry.grid
    ds, normals = full_geometry.signed_distance, full_geometry.normal_band
    assert ds.shape == grid.shape and normals.shape == (grid.d,) + grid.shape
    for field in (ds, normals):
        assert not any(field.strides) and not field.flags.writeable
    assert np.all(ds == 1.0) and np.all(np.isnan(normals))
    with pytest.raises(ValueError):
        ds[0, 0] = 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_band_distance_is_its_x2_profile_broadcast(d):
    """The band's signed distance holds one value per x2 coordinate,
    broadcast read-only over the other axes, with the bytes of the
    expression evaluated on the whole grid."""
    grid = TorusGrid(d, 64 if d == 2 else 24)
    band = make_shape("band", lo=0.25, hi=0.95)
    ds = band.signed_distance(grid)
    x = grid.meshgrid()[1]
    w = band.hi - band.lo
    t = (x - band.lo) % 1.0
    full = np.where(t < w, np.minimum(t, w - t), -np.minimum(t - w, 1.0 - t))
    assert ds.shape == grid.shape and ds.tobytes() == full.tobytes()
    assert not ds.flags.writeable
    assert [s == 0 for s in ds.strides] == [k != 1 for k in range(d)]


def _eager_normal_band(geo):
    """Reference: the normals of the whole grid, restricted to the band."""
    ds, grid = geo.signed_distance, geo.grid
    band = np.abs(ds) < geo.band_width
    grad = np.stack(
        [
            (np.roll(ds, -1, axis=ax) - np.roll(ds, 1, axis=ax)) / (2.0 * grid.spacing)
            for ax in range(grid.d)
        ]
    )
    norm = np.sqrt(np.sum(grad**2, axis=0))
    normal = np.full((grid.d,) + grid.shape, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        nu = -grad / norm
    normal[:, band] = nu[:, band]
    return normal


@pytest.mark.parametrize("kind", ["band", "disk"])
def test_lazy_normal_band_equals_the_eager_computation(kind):
    shape = {
        "band": make_shape("band", lo=0.25, hi=0.95),
        "disk": make_shape("disk", center=(0.5, 0.5), radius=0.3),
    }[kind]
    geo = build_geometry(shape, TorusGrid(2, 128))
    assert "normal_band" not in vars(geo)  # not computed until read
    normals = geo.normal_band
    assert geo.normal_band is normals and not normals.flags.writeable
    assert normals.tobytes() == _eager_normal_band(geo).tobytes()


def test_band_normal_points_down_on_lower_boundary(band_geometry):
    geo = band_geometry
    grid = geo.grid
    y = geo.grid.axis_coords()
    near_lower = np.abs(geo.signed_distance) < geo.band_width
    near_lower &= np.broadcast_to(np.abs(y - 0.25) < 0.05, grid.shape)
    assert near_lower.sum() > 0
    nu = geo.normal_band[:, near_lower]
    assert np.max(np.abs(nu[0])) < 1e-6
    assert np.max(np.abs(nu[1] + 1.0)) < 1e-6


def test_normals_are_unit_length(disk_geometry):
    geo = disk_geometry
    on_band = np.abs(geo.signed_distance) < geo.band_width
    norms = np.sqrt((geo.normal_band[:, on_band] ** 2).sum(axis=0))
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_three_dimensional_ball_geometry():
    grid = TorusGrid(3, 32)
    geo = build_geometry(
        make_shape("disk", center=(0.5, 0.5, 0.5), radius=0.25), grid, delta=0.1
    )
    vol = geo.omega_mask.sum() * grid.cell_measure
    assert vol == pytest.approx(4.0 / 3.0 * math.pi * 0.25**3, abs=6.0 / grid.n**2)
    assert np.array_equal(geo.omega_mask, geo.signed_distance > 0.0)


# --- strips -----------------------------------------------------------------

def test_band_mask_zero_delta_is_empty(disk_geometry):
    assert band_mask(disk_geometry, +1, delta=0.0).sum() == 0
    assert band_mask(disk_geometry, -1, delta=0.0).sum() == 0


def test_band_mask_annulus_area(disk_geometry):
    inner = band_mask(disk_geometry, +1, delta=0.05)
    area = inner.sum() * disk_geometry.grid.cell_measure
    target = math.pi * (0.3**2 - 0.25**2)
    assert abs(area - target) < 0.02 * target


def test_band_masks_disjoint_from_each_other_and_boundary(disk_geometry):
    plus = band_mask(disk_geometry, +1, delta=0.05)
    minus = band_mask(disk_geometry, -1, delta=0.05)
    assert not np.any(plus & minus)
    # strict inequalities exclude the boundary layer itself
    on_boundary = disk_geometry.signed_distance == 0.0
    assert not np.any(plus & on_boundary)
    assert not np.any(minus & on_boundary)


def test_boundary_layer_mask_hugs_the_interface(disk_geometry):
    layer = boundary_layer_mask(disk_geometry)
    assert layer.sum() > 0
    width = 0.5 * math.sqrt(2.0) * disk_geometry.grid.spacing
    assert np.max(np.abs(disk_geometry.signed_distance[layer])) <= width + 1e-12


# --- rejection --------------------------------------------------------------

def test_shape_touching_seam_rejected():
    grid = TorusGrid(2, 128)
    with pytest.raises(GeometryError):
        build_geometry(make_shape("disk", center=(0.5, 0.5), radius=0.49), grid)


def test_delta_beyond_reach_rejected():
    grid = TorusGrid(2, 128)
    with pytest.raises(GeometryError):
        build_geometry(
            make_shape("disk", center=(0.5, 0.5), radius=0.3), grid, delta=0.35
        )


def test_band_reaching_the_medial_axis_names_delta():
    """delta = 0.1 is below the reach 0.15 of a ball of radius 0.15, but at
    n = 24 the band delta + 2 spacing reaches the ball's centre."""
    with pytest.raises(
        GeometryError,
        match=r"normal band of width delta \+ 2 spacing = 0\.1833 "
        r"\(delta=0\.1, reach 0\.15\)",
    ):
        build_geometry(
            make_shape("disk", center=(0.5, 0.5, 0.5), radius=0.15),
            TorusGrid(3, 24),
            delta=0.1,
        )


def test_unknown_shape_kind_rejected():
    with pytest.raises(GeometryError):
        make_shape("pentagon", radius=0.2)


# --- refinement -------------------------------------------------------------

def _smoothed_perimeter(n, radius=0.3):
    """Total variation of a ramped indicator; approximates |boundary|."""
    grid = TorusGrid(2, n)
    geo = build_geometry(
        make_shape("disk", center=(0.5, 0.5), radius=radius), grid
    )
    width = 4.0 * grid.spacing
    u = np.clip(0.5 - geo.signed_distance / width, 0.0, 1.0)
    gx = (np.roll(u, -1, 0) - np.roll(u, 1, 0)) / (2.0 * grid.spacing)
    gy = (np.roll(u, -1, 1) - np.roll(u, 1, 1)) / (2.0 * grid.spacing)
    return float(np.sum(np.hypot(gx, gy)) * grid.cell_measure)


def test_perimeter_estimate_stable_under_refinement():
    exact = 2.0 * math.pi * 0.3
    p128 = _smoothed_perimeter(128)
    p256 = _smoothed_perimeter(256)
    assert abs(p128 - exact) < 0.01 * exact
    assert abs(p256 - exact) < 0.01 * exact
    # refinement drift is O(1/n): measured about 0.03/n, asserted at 1/n
    assert abs(p128 - p256) < 1.0 / 128.0


# --- randomized invariants -----------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    radius=st.floats(0.1, 0.3),
    cx=st.floats(0.45, 0.55),
    cy=st.floats(0.45, 0.55),
)
def test_random_disk_geometry_invariants(radius, cx, cy):
    grid = TorusGrid(2, 64)
    geo = build_geometry(
        make_shape("disk", center=(cx, cy), radius=radius),
        grid,
        delta=min(0.05, 0.5 * radius),
    )
    assert not np.any(geo.omega_mask & geo.substrate_mask)
    assert np.array_equal(geo.omega_mask, geo.signed_distance > 0.0)
    on_band = np.abs(geo.signed_distance) < geo.band_width
    if on_band.any():
        norms = np.sqrt((geo.normal_band[:, on_band] ** 2).sum(axis=0))
        assert np.max(np.abs(norms - 1.0)) < 1e-10
