"""Tension extensions: Dirichlet solver, maximum principle, assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from ambo import tensions as tensions_module
from ambo.anisotropy import Anisotropy
from ambo.config import build_geometry_from, build_tensions, config_from_mapping
from ambo.errors import NumericalError
from ambo.geometry import band_mask, boundary_layer_mask, build_geometry, make_shape
from ambo.grid import TorusGrid
from ambo.tensions import (
    ModifiedTensions,
    RawTensions,
    TensionError,
    extend_pv,
    extend_substrate,
    laplace_solve,
    validate_raw_tensions,
    verify_triangle,
)
from helpers import constant_tensions

DISK = make_shape("disk", center=(0.5, 0.5), radius=0.3)
VARYING = RawTensions.from_values("1 + 0.2*x1", 2.0, 1.5)
CONSTANT = RawTensions.from_values(1.0, 1.0, 1.0)


def _radii(grid):
    centers = np.stack(grid.meshgrid(), axis=-1)
    return grid.torus_distance(centers, (0.5, 0.5))


def _max_lipschitz(field, grid):
    """Largest neighbor difference divided by the spacing."""
    return (
        max(np.abs(field - np.roll(field, 1, axis=a)).max() for a in range(grid.d))
        / grid.spacing
    )


# ---------------------------------------------------------------------------
# laplace_solve


def test_constant_dirichlet_data_gives_constant_solution(grid256, disk_geometry):
    layer = boundary_layer_mask(disk_geometry)
    unknown = ~(disk_geometry.omega_mask | layer)
    data = np.full(grid256.shape, 3.7)
    sol = laplace_solve(grid256, unknown, data)
    assert np.all(sol[~unknown] == 3.7)
    assert np.abs(sol - 3.7).max() <= 1e-10


def test_strip_between_zero_and_one_is_linear(grid256):
    _, x2 = grid256.meshgrid()
    unknown = (x2 > 0.25) & (x2 < 0.75)
    data = np.where(x2 >= 0.75, 1.0, 0.0)
    sol = laplace_solve(grid256, unknown, data)
    # Unknown rows are 65..191 with data 0 at row 64 and 1 at row 192;
    # the discrete harmonic profile is affine in the row index.
    rows = np.arange(grid256.n)
    expected = (rows - 64) / 128.0
    cols = unknown[0, :]
    assert np.abs(sol[:, cols] - expected[cols][None, :]).max() < 1e-8
    assert np.abs(sol - _direct_solve(grid256, unknown, data)).max() <= DIRECT_SOLVE_TOL


@pytest.mark.parametrize("n", [128, 256])
def test_annulus_matches_log_radial_profile(n):
    grid = TorusGrid(2, n)
    r = _radii(grid)
    unknown = (r > 0.25) & (r < 0.4)
    b = -1.0 / np.log(1.6)
    a = -b * np.log(0.4)
    data = a + b * np.log(np.maximum(r, 0.05))
    sol = laplace_solve(grid, unknown, data)
    assert np.abs(sol - _direct_solve(grid, unknown, data)).max() <= DIRECT_SOLVE_TOL

    rr = r[unknown]
    design = np.stack([np.ones_like(rr), np.log(rr)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, sol[unknown], rcond=None)
    residual = np.abs(design @ coef - sol[unknown]).max()
    # measured 0.46-0.48 spacing^2; the bound leaves a factor ~4
    assert residual <= 2.0 * grid.spacing**2


def test_laplace_solver_errors(grid256, grid64, monkeypatch):
    good = np.zeros(grid256.shape)
    with pytest.raises(TensionError):
        laplace_solve(grid256, np.zeros(grid64.shape, dtype=bool), good)
    with pytest.raises(TensionError):
        laplace_solve(grid256, np.zeros(grid256.shape, dtype=bool), np.zeros(grid64.shape))
    with pytest.raises(TensionError, match="Dirichlet"):
        laplace_solve(grid256, np.ones(grid256.shape, dtype=bool), good)

    r = _radii(grid64)
    unknown = (r > 0.25) & (r < 0.4)
    data = np.where(r <= 0.25, 1.0, 0.0)
    # the annulus fills 31% of the grid (preconditioned), the ring 9% (plain)
    cg = tensions_module._conjugate_gradients
    monkeypatch.setattr(
        tensions_module,
        "_conjugate_gradients",
        lambda apply, rhs, precondition, atol, maxiter: cg(apply, rhs, precondition, atol, 1),
    )
    for region in (unknown, (r > 0.25) & (r < 0.3)):
        with pytest.raises(NumericalError, match="converge"):
            laplace_solve(grid64, region, data)


def _torus_laplacian(grid):
    """The periodic 2d+1-point Laplacian of the whole torus, C-order cells."""
    n = grid.n
    ring = sp.lil_matrix(2.0 * sp.identity(n))
    for i in range(n):
        ring[i, (i + 1) % n] = ring[i, (i - 1) % n] = -1.0
    total = None
    for axis in range(grid.d):
        term = sp.identity(1)
        for other in range(grid.d):
            term = sp.kron(term, ring if other == axis else sp.identity(n))
        total = term if total is None else total + term
    return total.tocsr()


def _direct_solve(grid, unknown, data):
    """The Dirichlet problem of laplace_solve by sparse LU: the torus
    Laplacian's unknown rows, with the known columns moved to the right."""
    rows = _torus_laplacian(grid)[np.flatnonzero(unknown)]
    inside, outside = unknown.reshape(-1), ~unknown.reshape(-1)
    out = data.reshape(-1).copy()
    out[inside] = spsolve(rows[:, inside].tocsc(), -(rows[:, outside] @ out[outside]))
    return out.reshape(grid.shape)


def _recorded_solves(monkeypatch, build):
    """The (grid, unknown, data) of every laplace_solve that ``build`` makes."""
    calls = []
    solve = tensions_module.laplace_solve

    def record(grid, unknown, data, **kwargs):
        calls.append((grid, unknown.copy(), data.copy()))
        return solve(grid, unknown, data, **kwargs)

    monkeypatch.setattr(tensions_module, "laplace_solve", record)
    build()
    monkeypatch.undo()
    return calls


def _count_preconditioned(monkeypatch):
    """The unknown counts of the solves that build the FFT preconditioner."""
    built = []
    make = tensions_module._torus_laplace_inverse

    def counting(grid, unknown):
        built.append(int(unknown.sum()))
        return make(grid, unknown)

    monkeypatch.setattr(tensions_module, "_torus_laplace_inverse", counting)
    return built


# Largest |laplace_solve - sparse LU| measured: 1.9e-12 for the 2-d
# extend_disk exterior, 3.6e-14 for the 3-d one, 9.2e-12 over its six
# strips, 4.7e-12 for the annuli and 2.0e-12 for the straight strip.
# The CG stops at a residual of 1e-10 times the data range.
DIRECT_SOLVE_TOL = 2e-11


def test_exterior_solve_is_preconditioned_and_matches_sparse_lu(
    disk_geometry, monkeypatch
):
    """The extend_disk exterior at n = 256: 70% of the grid, preconditioned."""
    ((grid, unknown, data),) = _recorded_solves(
        monkeypatch, lambda: extend_pv(VARYING, disk_geometry)
    )
    assert unknown.sum() == 46132
    built = _count_preconditioned(monkeypatch)
    got = laplace_solve(grid, unknown, data)
    assert built == [46132]
    assert np.array_equal(got[~unknown], data[~unknown])
    assert np.abs(got - _direct_solve(grid, unknown, data)).max() <= DIRECT_SOLVE_TOL


def test_three_dimensional_exterior_matches_sparse_lu(monkeypatch):
    grid = TorusGrid(3, 24)
    geometry = build_geometry(
        make_shape("disk", center=(0.5, 0.5, 0.5), radius=0.15), grid, delta=0.06
    )
    raw = RawTensions.from_values("1 + 0.2*x1 - 0.1*x3", 1.0, 1.0)
    ((grid, unknown, data),) = _recorded_solves(
        monkeypatch, lambda: extend_pv(raw, geometry)
    )
    built = _count_preconditioned(monkeypatch)
    got = laplace_solve(grid, unknown, data)
    assert built == [int(unknown.sum())]
    assert np.abs(got - _direct_solve(grid, unknown, data)).max() <= DIRECT_SOLVE_TOL


def test_strip_solves_are_not_preconditioned_and_match_sparse_lu(
    disk_geometry, monkeypatch
):
    calls = _recorded_solves(
        monkeypatch,
        lambda: extend_substrate(VARYING, disk_geometry, Anisotropy(np.eye(2))),
    )
    assert len(calls) == 7  # the exterior, then three solves per strip side
    built = _count_preconditioned(monkeypatch)
    for grid, unknown, data in calls[1:]:
        assert unknown.mean() < 0.1
        got = laplace_solve(grid, unknown, data)
        assert np.abs(got - _direct_solve(grid, unknown, data)).max() <= DIRECT_SOLVE_TOL
    assert built == []


@pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
def test_random_regions_with_few_dirichlet_cells_match_sparse_lu(d, n):
    """Every component of a region short of the whole torus touches a
    Dirichlet cell, so each such problem is regular, however few of
    those cells there are (2 to 241 here).  Data span 3, so the bound is
    3 DIRECT_SOLVE_TOL; measured up to 1.9e-11."""
    grid = TorusGrid(d, n)
    rng = np.random.default_rng(11)
    for density in (0.5, 0.9, 0.99):
        unknown = rng.random(grid.shape) < density
        data = rng.uniform(-1.0, 2.0, grid.shape)
        got = laplace_solve(grid, unknown, data)
        assert np.abs(got - _direct_solve(grid, unknown, data)).max() <= 3 * DIRECT_SOLVE_TOL


def test_no_unknown_cells_returns_data_unchanged(grid64, rng):
    data = rng.normal(size=grid64.shape)
    out = laplace_solve(grid64, np.zeros(grid64.shape, dtype=bool), data)
    assert np.array_equal(out, data)


# ---------------------------------------------------------------------------
# extend_pv


def test_constant_pv_extends_to_constant(disk_geometry):
    field, lo, hi = extend_pv(CONSTANT, disk_geometry)
    assert lo == hi == 1.0
    assert np.all(field == 1.0)


def test_extension_keeps_data_and_obeys_maximum_principle(grid256, disk_geometry):
    field, lo, hi = extend_pv(VARYING, disk_geometry)
    layer = boundary_layer_mask(disk_geometry)
    closure = disk_geometry.omega_mask | layer
    sampled = VARYING.sample("pv", grid256)
    assert np.array_equal(field[closure], sampled[closure])
    outside = ~closure
    assert field[outside].min() >= lo - 1e-8
    assert field[outside].max() <= hi + 1e-8
    assert lo == sampled[layer].min()
    assert hi == sampled[layer].max()


def test_extension_self_convergence_under_refinement():
    reference, *_ = extend_pv(VARYING, build_geometry(DISK, TorusGrid(2, 512)))
    errors = {}
    for n in (128, 256):
        field, *_ = extend_pv(VARYING, build_geometry(DISK, TorusGrid(2, n)))
        k = 512 // n
        coarse_ref = reference.reshape(n, k, n, k).mean(axis=(1, 3))
        errors[n] = np.abs(field - coarse_ref).mean()
    # measured ratio 3.24 against the block-meaned fine solution
    assert errors[128] / errors[256] >= 1.5


def test_extension_requires_a_substrate(full_geometry):
    with pytest.raises(TensionError, match="boundary"):
        extend_pv(CONSTANT, full_geometry)


# ---------------------------------------------------------------------------
# extend_substrate


def test_constant_isotropic_substrate_fields(grid256, disk_geometry):
    t = extend_substrate(CONSTANT, disk_geometry, Anisotropy(np.eye(2)))
    layer = boundary_layer_mask(disk_geometry)

    # On the boundary layer the fields are gamma_s / gamma(normal) = 1/1.
    assert np.abs(t.sp[layer] - 1.0).max() < 1e-12
    assert np.abs(t.sv[layer] - 1.0).max() < 1e-12
    assert np.all(t.pv == 1.0)

    # Outside the two transport strips both fields equal the far constant
    # C_gamma * C_pv / (2 c_gamma) = 1/2 exactly.
    strips = (band_mask(disk_geometry, +1, delta=t.delta_used) & ~layer) | (
        band_mask(disk_geometry, -1, delta=t.delta_used) & ~layer
    )
    far = ~(layer | strips)
    assert far.any()
    assert np.all(t.sp[far] == 0.5)
    assert np.all(t.sv[far] == 0.5)

    # The strip interpolates between 1 and 1/2 without jumps beyond a
    # linear-ramp Lipschitz bound.
    ramp = (t.upper - t.lower) / t.delta_used
    assert _max_lipschitz(t.sp, grid256) <= 2.0 * ramp

    assert verify_triangle(t).ok


def test_varying_tensions_full_audit(grid256, disk_geometry):
    gamma = Anisotropy(((1.3, 0.2), (0.2, 0.7)))
    validate_raw_tensions(VARYING, disk_geometry, gamma)  # does not raise

    t = extend_substrate(VARYING, disk_geometry, gamma)
    assert t.strict_slack > 0.0
    assert t.delta_used <= disk_geometry.delta
    assert verify_triangle(t).ok
    for field in (t.pv, t.sp, t.sv):
        assert field.min() >= t.lower and field.max() <= t.upper
    assert not t.is_spatially_constant


def test_far_field_equals_documented_constant(grid256, disk_geometry):
    gamma = Anisotropy(((1.3, 0.2), (0.2, 0.7)))
    _, _, big_pv = extend_pv(VARYING, disk_geometry)
    c_g, C_g = gamma.bounds()
    expected = C_g * big_pv / (2.0 * c_g)

    t = extend_substrate(VARYING, disk_geometry, gamma)
    layer = boundary_layer_mask(disk_geometry)
    strips = (band_mask(disk_geometry, +1, delta=t.delta_used) & ~layer) | (
        band_mask(disk_geometry, -1, delta=t.delta_used) & ~layer
    )
    far = ~(layer | strips)
    assert np.all(t.sp[far] == expected)
    assert np.all(t.sv[far] == expected)


def test_lipschitz_constant_stable_under_refinement():
    lipschitz = {}
    for n in (128, 256):
        grid = TorusGrid(2, n)
        geometry = build_geometry(DISK, grid, delta=0.05)
        t = extend_substrate(VARYING, geometry, Anisotropy(np.eye(2)))
        lipschitz[n] = [_max_lipschitz(f, grid) for f in (t.pv, t.sp, t.sv)]
    for coarse, fine in zip(lipschitz[128], lipschitz[256]):
        assert fine <= 1.25 * coarse


def test_extend_mode_does_not_depend_on_how_constants_are_sampled(
    disk_geometry, monkeypatch
):
    """Constant raw data sampled as zero-stride views build the same
    fields, bit for bit, as the same data sampled as full arrays."""
    gamma = Anisotropy(((1.3, 0.2), (0.2, 0.7)))
    lean = extend_substrate(VARYING, disk_geometry, gamma)
    sample = RawTensions.sample
    monkeypatch.setattr(
        RawTensions, "sample", lambda self, which, grid: np.array(sample(self, which, grid))
    )
    full = extend_substrate(VARYING, disk_geometry, gamma)
    for name in ("pv", "sp", "sv"):
        field = getattr(lean, name)
        assert field.flags.writeable and all(field.strides)
        assert field.tobytes() == getattr(full, name).tobytes()
    for name in ("lower", "upper", "delta_used", "halvings", "strict_slack"):
        assert getattr(lean, name) == getattr(full, name)


# ---------------------------------------------------------------------------
# sampling, validation and reports


@pytest.mark.parametrize("which, value", [("sp", 2.0), ("sv", 1.5)])
def test_constant_expression_samples_to_a_read_only_view(grid64, which, value):
    field = VARYING.sample(which, grid64)
    assert field.shape == grid64.shape and not any(field.strides)
    assert not field.flags.writeable and np.all(field == value)
    with pytest.raises(ValueError):
        field[0, 0] = 0.0


def test_coordinate_expression_samples_to_a_writable_array(grid64):
    field = VARYING.sample("pv", grid64)
    x1, _ = grid64.meshgrid()
    assert field.flags.writeable and field.flags.c_contiguous
    assert np.array_equal(field, 1.0 + 0.2 * x1)
    field[0, 0] = 0.0  # the caller's own array


def test_triangle_report_reduces_each_slack_as_the_full_arrays_did(grid64, rng):
    pv, sp, sv = (rng.uniform(0.5, 2.0, grid64.shape) for _ in range(3))
    t = ModifiedTensions.from_fields(grid64, pv, sp, sv)
    slacks = {
        "pv<=sp+sv": sp + sv - pv,
        "sp<=pv+sv": pv + sv - sp,
        "sv<=pv+sp": pv + sp - sv,
    }
    for tol in (0.0, 0.5, 10.0):
        report = verify_triangle(t, tol=tol)
        assert report.worst_slack == {k: float(s.min()) for k, s in slacks.items()}
        assert report.violations == {
            k: int((s < -tol).sum()) for k, s in slacks.items()
        }
    assert 0 < sum(verify_triangle(t).violations.values())
    assert verify_triangle(t, tol=10.0).ok


def test_triangle_audit_holds_one_slack_array_at_a_time(grid256):
    # A varying g_pv, so that the slacks are grid arrays.
    t = ModifiedTensions.from_fields(
        grid256, *(VARYING.sample(which, grid256) for which in ("pv", "sp", "sv"))
    )
    tracemalloc.start()
    try:
        report = verify_triangle(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    # 1.00 measured, in full-grid float64 arrays; three at once would be 3.
    assert peak <= 1.5 * grid256.cell_count * 8


def test_triangle_report_on_constant_triple(grid64):
    t = constant_tensions(grid64, 1.0, 1.0, 1.0)
    report = verify_triangle(t)
    assert report.ok
    assert all(slack == 1.0 for slack in report.worst_slack.values())
    assert all(count == 0 for count in report.violations.values())


@pytest.mark.parametrize("values", [(1.0, 1.2, 0.9), (3.0, 1.0, 1.0), (1.0, 0.4, 0.5)])
@pytest.mark.parametrize("tol", [0.0, 0.05, 0.5])
def test_triangle_audit_of_constant_fields_equals_the_cellwise_audit(grid64, values, tol):
    """Zero-stride constant tensions are audited on one cell; the report
    equals the cellwise audit of materialised copies, violations of every
    cell included ((1, 0.4, 0.5) violates pv <= sp + sv by 0.1, which the
    tolerance 0.5 forgives)."""
    constant = ModifiedTensions.from_fields(
        grid64, *(np.broadcast_to(v, grid64.shape) for v in values)
    )
    dense = ModifiedTensions.from_fields(
        grid64, *(np.full(grid64.shape, v) for v in values)
    )
    assert not any(constant.pv.strides) and all(dense.pv.strides)
    report = verify_triangle(constant, tol=tol)
    assert report == verify_triangle(dense, tol=tol)
    assert set(report.violations.values()) <= {0, grid64.cell_count}


def test_zeroed_sv_is_flagged(disk_geometry):
    t = extend_substrate(VARYING, disk_geometry, Anisotropy(np.eye(2)))
    broken = ModifiedTensions.from_fields(
        t.grid, t.pv, t.sp, np.zeros(t.grid.shape)
    )
    report = verify_triangle(broken)
    assert not report.ok
    assert report.violations["pv<=sp+sv"] > 0
    # a large tolerance forgives the same fields
    assert verify_triangle(broken, tol=10.0).ok


def test_modified_tensions_constructors(grid64):
    zero_sp = config_from_mapping({"grid": {"n": 64}, "tensions": {"gamma_sp": "0"}})
    with pytest.raises(TensionError, match="positive"):
        gamma = Anisotropy(np.eye(2))
        build_tensions(zero_sp, build_geometry_from(zero_sp), gamma)
    with pytest.raises(TensionError, match="shape"):
        ModifiedTensions.from_fields(
            grid64, np.ones(grid64.shape), np.ones(grid64.shape), np.ones((4, 4))
        )
    t = constant_tensions(grid64, 2.0, 1.0, 1.5)
    assert t.is_spatially_constant
    assert t.lower == 1.0 and t.upper == 2.0


def test_raw_validation_failures(disk_geometry, full_geometry):
    gamma = Anisotropy(np.eye(2))

    top_heavy = RawTensions.from_values(1.0, 5.0, 1.0)
    triangle = r"^raw tensions are not admissible: strict triangle inequalities fail"
    with pytest.raises(TensionError, match=triangle):
        validate_raw_tensions(top_heavy, disk_geometry, gamma)
    with pytest.raises(TensionError, match=triangle):
        extend_substrate(top_heavy, disk_geometry, gamma)

    negative = RawTensions.from_values("-1.0", 1.0, 1.0)
    with pytest.raises(TensionError, match="gamma_pv must be positive"):
        validate_raw_tensions(negative, disk_geometry, gamma)

    with pytest.raises(TensionError, match="boundary"):
        validate_raw_tensions(CONSTANT, full_geometry, gamma)

    with pytest.raises(TensionError, match="x3"):
        RawTensions.from_values("x3", 1.0, 1.0).sample("pv", disk_geometry.grid)
