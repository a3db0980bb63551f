"""Kernel tests: admissibility, scaling, and periodic convolution."""

import ast
import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ambo import kernel as kernel_module
from ambo.anisotropy import induced_anisotropy
from ambo.errors import NumericalError, ResolutionWarning
from ambo.geometry import TorusGrid
from ambo.grid import on_box
from ambo.kernel import (
    GaussianKernel,
    KernelError,
    SampledKernel,
    TriangularKernel,
    _box_flops,
    _irfftn,
    _rfftn,
    _sample_with_images,
    convolve_cells,
    scale_kernel,
    scale_kernel_gradient,
    tail_margins,
)
from helpers import cell_box, shifted_sums


# --- admissibility ---------------------------------------------------------

# The elliptic Gaussian of the extend_disk preset, whose gamma_K is diag(1.3, 0.7).
EXTEND_MATRIX = (((1.3 * math.pi) ** -0.5, 0.0), (0.0, (0.7 * math.pi) ** -0.5))

# Every run kernel in 2-d and 3-d: (kernel, d, grid n, resolved h).
ADMISSIBLE = [
    (GaussianKernel(), 2, 256, 1.0e-3),
    (GaussianKernel(), 3, 48, 4.0e-3),
    (GaussianKernel(matrix=EXTEND_MATRIX), 2, 256, 1.0e-3),
    (GaussianKernel(matrix=((1.2, 0.1), (0.1, 0.8))), 2, 256, 1.0e-3),
]


@pytest.mark.parametrize(
    "kernel, d, n, h", ADMISSIBLE, ids=["gaussian2", "gaussian3", "diagonal", "sheared"]
)
def test_run_kernels_meet_the_closed_form_hypotheses(kernel, d, n, h):
    """K is even (bit for bit) and nonnegative, |x| K(x) <= c K(x/2) with
    c = sqrt(8/3) e^{-1/2} / sigma_min(L), K >= a on B_b with
    b = 1 / max(1, |L|_2) and a = (4 pi)^{-d/2} e^{-1/4} |det L|, and the
    sampled K_h has unit mass; the module docstring derives each."""
    lmat = np.asarray(getattr(kernel, "matrix", None) or np.eye(d))
    sigma = np.linalg.svd(lmat, compute_uv=False)
    c = math.sqrt(8.0 / 3.0) * math.exp(-0.5) / sigma[-1]
    b = 1.0 / max(1.0, sigma[0])
    a = (4.0 * math.pi) ** (-0.5 * d) * math.exp(-0.25) * abs(np.linalg.det(lmat))
    rng = np.random.default_rng(0)

    def in_ball(radius):
        x = rng.normal(size=(4096, d))
        x *= (rng.uniform(0.0, radius, size=4096) / np.linalg.norm(x, axis=-1))[:, None]
        return x

    x = in_ball(16.0 / sigma[-1])
    kx = kernel.evaluate(x)
    assert np.array_equal(kernel.evaluate(-x), kx)
    assert np.all(kx >= 0.0)
    radius = np.linalg.norm(x, axis=-1)
    assert np.all(radius * kx <= c * kernel.evaluate(0.5 * x) * (1.0 + 1e-12))
    # c is attained at sqrt(8/3) v / sigma_min, v the right singular
    # vector of sigma_min.
    worst = np.linalg.svd(lmat)[2][-1] * math.sqrt(8.0 / 3.0) / sigma[-1]
    ratio = np.linalg.norm(worst) * kernel.evaluate(worst) / kernel.evaluate(worst / 2)
    assert ratio == pytest.approx(c, rel=1e-12)
    assert np.all(kernel.evaluate(in_ball(b)) >= a * (1.0 - 1e-12))
    grid = TorusGrid(d, n)
    mass = scale_kernel(kernel, grid, h).values.sum() * grid.cell_measure
    assert abs(mass - 1.0) <= 1e-12


# --- scaling ----------------------------------------------------------------

def test_scaled_mass_is_one_across_h():
    grid = TorusGrid(2, 512)
    for h in (1e-2, 1e-3, 1e-4):
        kh = scale_kernel(GaussianKernel(), grid, h)
        assert kh.values.sum() * grid.cell_measure == pytest.approx(1.0, abs=1e-6)


def test_second_moment_scales_linearly_in_h():
    grid = TorusGrid(2, 256)
    deltas = grid.axis_coords()
    deltas = deltas - np.round(deltas)  # min-image displacement from origin
    X, Y = np.meshgrid(deltas, deltas, indexing="ij")
    r2 = X * X + Y * Y

    def moment(h):
        kh = scale_kernel(GaussianKernel(), grid, h)
        return float(np.sum(kh.values * r2) * grid.cell_measure)

    ratio = moment(1e-3) / moment(2.5e-4)
    assert ratio == pytest.approx(4.0, rel=0.01)


def test_smoothing_error_decreases_with_h():
    grid = TorusGrid(2, 256)
    x = grid.axis_coords()
    u = np.sin(2.0 * np.pi * x)[:, None] * np.ones((1, grid.n))
    errs = []
    for h in (4e-3, 2e-3, 1e-3, 5e-4):
        kh = scale_kernel(GaussianKernel(), grid, h)
        errs.append(float(np.mean(np.abs(kh.convolve(u) - u))))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_under_resolved_h_warns_and_tiny_h_errors():
    grid = TorusGrid(2, 64)
    with pytest.warns(ResolutionWarning):
        scale_kernel(GaussianKernel(), grid, (2.0 * grid.spacing) ** 2)
    with pytest.raises(NumericalError):
        scale_kernel(GaussianKernel(), grid, (0.5 * grid.spacing) ** 2)
    with pytest.raises(KernelError):
        scale_kernel(GaussianKernel(), grid, 0.0)


# --- sampling paths ---------------------------------------------------------

def _dense_image_sum(kernel, grid, h):
    """K_h at every cell centre, summed over all 3^d periodic images."""
    coords = grid.centered_axis_coords()
    points = np.stack(np.meshgrid(*[coords] * grid.d, indexing="ij"), axis=-1)
    total = np.zeros(grid.shape)
    for shift in itertools.product((-1.0, 0.0, 1.0), repeat=grid.d):
        total += kernel.evaluate((points + np.asarray(shift)) / math.sqrt(h))
    return total * h ** (-0.5 * grid.d)


@pytest.mark.parametrize(
    "kernel, d, n, h, product",
    [
        (GaussianKernel(), 2, 512, 2.5e-4, True),
        (GaussianKernel(), 2, 256, 4e-3, True),
        (GaussianKernel(), 3, 48, 4e-3, True),
        (GaussianKernel(), 3, 64, 2.5e-4, True),  # under-resolved: a deep 3-d tail
        (GaussianKernel(matrix=EXTEND_MATRIX), 2, 256, 1e-3, True),
        (
            GaussianKernel(matrix=((1.2, 0, 0), (0, 0.8, 0), (0, 0, 0.6))),
            3, 48, 2.5e-3, True,
        ),
        (GaussianKernel(matrix=((1.2, 0.1), (0.1, 0.8))), 2, 128, 1e-3, False),
    ],
)
def test_sampled_gaussians_match_dense_image_sum(kernel, d, n, h, product):
    """Every Gaussian-family sample equals the explicit image sum.

    A diagonal L takes the tensor-product path, the sheared L the image
    path.  Bounds: measured at most 4.0e-16 of the peak everywhere and
    8.6e-14 relative where the sum exceeds 1e-250 (the exponent of the
    deepest tail is about 575, so one rounding in it costs ~1.3e-13);
    the bounds are 2e-15 and 5e-13.
    """
    grid = TorusGrid(d, n)
    assert (kernel.diagonal(d) is not None) == product
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        got = scale_kernel(kernel, grid, h).values
    expected = _dense_image_sum(kernel, grid, h)
    error = np.abs(got - expected)
    assert error.max() <= 2e-15 * expected.max()
    tail = expected > 1e-250
    assert (error[tail] / expected[tail]).max() <= 5e-13


@pytest.mark.parametrize(
    "d, n, radius, h",
    [
        (2, 256, 1.0, 1e-3),
        (2, 256, 1.0, 4e-3),
        (2, 256, 1.0, 1.6e-2),
        (2, 64, 1.0, 0.25),  # support radius exactly 1/2
        (2, 64, 2.0, 0.1),  # support radius 0.63: every image
        (3, 48, 1.0, 4e-3),
        (3, 48, 0.8, 1.6e-2),
    ],
)
def test_tent_window_equals_image_sum_bytes(d, n, radius, h):
    grid = TorusGrid(d, n)
    tent = TriangularKernel(radius=radius)
    sqrt_h = math.sqrt(h)
    values = _sample_with_images(tent.evaluate, grid, sqrt_h) * h ** (-0.5 * d)
    grads = _sample_with_images(tent.gradient, grid, sqrt_h) * h ** (-0.5 * (d + 1))
    assert scale_kernel(tent, grid, h).values.tobytes() == values.tobytes()
    assert scale_kernel_gradient(tent, grid, h).tobytes() == grads.tobytes()


# --- convolution ------------------------------------------------------------

def test_convolving_ones_gives_discrete_mass():
    grid = TorusGrid(2, 128)
    kh = scale_kernel(GaussianKernel(), grid, 1e-3)
    out = kh.convolve(np.ones(grid.shape))
    assert np.max(np.abs(out - kh.values.sum() * grid.cell_measure)) < 1e-10


def test_fft_matches_handwritten_double_loop(rng):
    n = 32
    grid = TorusGrid(2, n)
    kh = scale_kernel(GaussianKernel(), grid, 1e-2)
    f = rng.uniform(size=(n, n))
    fast = kh.convolve(f)
    idx = np.arange(n)
    oracle = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            oracle[i, j] = np.sum(kh.values[(i - idx[:, None]) % n, (j - idx) % n] * f)
    oracle *= grid.cell_measure
    assert np.max(np.abs(fast - oracle)) < 1e-10


def test_fft_matches_direct_method(rng):
    grid = TorusGrid(2, 64)
    kh = scale_kernel(GaussianKernel(), grid, 4e-3)
    f = rng.uniform(size=grid.shape)
    direct = shifted_sums(kh.values, f) * grid.cell_measure
    assert np.max(np.abs(kh.convolve(f) - direct)) < 1e-10


def test_convolution_commutes_with_translation(rng):
    grid = TorusGrid(2, 64)
    kh = scale_kernel(GaussianKernel(), grid, 4e-3)
    f = rng.uniform(size=grid.shape)
    shifted = np.roll(f, (5, -11), axis=(0, 1))
    assert np.max(
        np.abs(kh.convolve(shifted) - np.roll(kh.convolve(f), (5, -11), axis=(0, 1)))
    ) < 1e-12


def test_convolution_is_self_adjoint(rng):
    grid = TorusGrid(2, 64)
    kh = scale_kernel(GaussianKernel(), grid, 4e-3)
    f = rng.uniform(size=grid.shape)
    g = rng.uniform(size=grid.shape)
    lhs = float(np.sum(f * kh.convolve(g)))
    rhs = float(np.sum(kh.convolve(f) * g))
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


# --- box products -------------------------------------------------------------

FACTORED = [
    GaussianKernel(),
    GaussianKernel(matrix=((1.25, 0.0), (0.0, 0.8))),
]


def _cell_sets(d, n, rng):
    """Named flat cell sets of a (d, n) grid, ascending: a block across
    the seam of each axis, a single cell, none, and a random scatter."""
    sets = {}
    for axis in range(d):
        ranges = [np.arange(5, 9)] * d
        ranges[axis] = np.arange(-2, 3) % n
        block = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
        keep = rng.uniform(size=len(block)) < 0.7  # not the full product
        sets[f"seam{axis}"] = np.sort(np.ravel_multi_index(tuple(block[keep].T), (n,) * d))
    sets["single"] = np.array([n**d - 1])
    sets["empty"] = np.array([], dtype=np.int64)
    sets["scatter"] = np.sort(rng.choice(n**d, 40, replace=False))
    return sets


@pytest.mark.parametrize(
    "d, matrix",
    [
        (2, None),
        (2, ((1.25, 0.0), (0.0, 0.8))),
        (3, None),
        (3, ((1.25, 0.0, 0.0), (0.0, 0.8, 0.0), (0.0, 0.0, 1.1))),
    ],
    ids=["gaussian2", "diagonal2", "gaussian3", "diagonal3"],
)
def test_box_convolution_matches_the_direct_sum_and_the_fft(d, matrix, rng, monkeypatch):
    """Over cell sets that cross each seam, one cell, no cell and a
    scatter, with unit, signed and non-binary weights, the box product of
    :func:`convolve_cells` (it makes no FFT here) equals the direct
    shifted sum and the FFT convolution within 4e-16 (measured at most
    5.6e-17 over five seeds).  The diagonal L has a different factor on
    every axis, so swapped axes would show.  No cell gives exact zeros."""
    kernel = GaussianKernel(matrix or ())
    n = 32
    kh = scale_kernel(kernel, TorusGrid(d, n), 1e-2)
    for name, cells in _cell_sets(d, n, rng).items():
        box = cell_box(kh.grid, cells)
        axes = box[0]
        coords = np.unravel_index(cells, kh.grid.shape)
        assert [a.size for a in axes] == [np.unique(c).size for c in coords], name
        for weights in (
            np.ones(cells.size),
            rng.choice([-1.0, 1.0], cells.size),
            rng.uniform(-1.0, 1.0, cells.size),
        ):
            with monkeypatch.context() as m:
                m.setattr(SampledKernel, "convolve", None)  # no FFT
                got = convolve_cells(kh, box, weights)
            if name == "empty":
                assert got.shape == kh.grid.shape and not got.any()
                break
            field = np.zeros(kh.grid.shape)
            field.flat[cells] = weights
            # The direct sum runs over the field's cells (the convolution
            # commutes), which keeps it cheap in 3-d.
            direct = shifted_sums(field, kh.values) * kh.grid.cell_measure
            assert np.abs(got - direct).max() <= 4e-16, name
            assert np.abs(got - kh.convolve(field)).max() <= 4e-16, name


def test_box_flops_count_the_axis_contractions():
    """2 n^k m_k ... m_d flops for the contraction of axis k (from 1)."""
    grid = TorusGrid(3, 16)
    cells = np.ravel_multi_index(([1, 2, 2], [3, 3, 3], [0, 9, 15]), grid.shape)
    axes, mask = cell_box(grid, cells)
    shape = mask.shape
    assert shape == (2, 1, 3) and [a.tolist() for a in axes] == [[1, 2], [3], [0, 9, 15]]
    assert [w.tolist() for w in np.nonzero(mask)] == [[0, 1, 1], [0, 0, 0], [0, 1, 2]]
    assert _box_flops(grid.n, shape) == 2 * (16 * 2 * 1 * 3 + 16**2 * 1 * 3 + 16**3 * 3)
    assert _box_flops(grid.n, (0, 0, 0)) == 0
    # Restricted outputs: 2 b_1 ... b_k m_k ... m_d for axis k.
    assert _box_flops(grid.n, shape, (4, 5, 6)) == 2 * (4 * 2 * 3 + 20 * 3 + 120 * 3)
    assert _box_flops(grid.n, shape, (16,) * 3) == _box_flops(grid.n, shape)


@pytest.mark.parametrize(
    "d, kernel",
    [
        (2, GaussianKernel()),
        (3, GaussianKernel(((1.25, 0.0, 0.0), (0.0, 0.8, 0.0), (0.0, 0.0, 1.1)))),
        (2, GaussianKernel(((1.2, 0.1), (0.1, 0.8)))),
    ],
    ids=["gaussian2", "diagonal3", "sheared"],
)
def test_convolve_cells_on_a_box_equals_the_grid_result_there(d, kernel, rng):
    """K_h*u on a box of output coordinates (contiguous, across the seam,
    scattered, one coordinate, or none on an axis) is the whole grid's
    K_h*u read on that box.  The FFT path (sheared L) restricts its
    result, so the bytes agree.  The box product restricts each
    contraction's columns, and BLAS may round an output that it computes
    in a narrower edge tile, or by a matrix-vector product, in the last
    bit: within 4e-16 of the maximum (measured at most 2.8e-17 over 30
    seeds)."""
    n = 32
    grid = TorusGrid(d, n)
    kh = scale_kernel(kernel, grid, 1e-2)
    choices = [
        np.arange(5, 20),
        np.r_[0:4, 27:32],
        np.sort(rng.choice(n, 9, replace=False)),
        np.array([31]),
        np.arange(n),
        np.array([], dtype=np.intp),
    ]
    for name, cells in _cell_sets(d, n, rng).items():
        weights = rng.uniform(0.5, 1.5, cells.size)
        whole = convolve_cells(kh, cell_box(grid, cells), weights)
        for i in range(len(choices)):
            box = tuple(choices[(i + k) % len(choices)] for k in range(d))
            got = convolve_cells(kh, cell_box(grid, cells), weights, box)
            assert got.shape == tuple(b.size for b in box), name
            if kh.factors is None:
                assert got.tobytes() == on_box(whole, box).tobytes(), (name, i)
            elif got.size:
                assert np.abs(got - on_box(whole, box)).max() <= 4e-16 * whole.max()


@pytest.mark.parametrize(
    "d, n, h, matrix",
    [
        (2, 512, 2.5e-4, None),
        (2, 512, 1e-3, None),
        (3, 96, 1e-3, ((1.25, 0.0, 0.0), (0.0, 0.8, 0.0), (0.0, 0.0, 1.1))),
    ],
)
def test_tail_margins_are_minimal(d, n, h, matrix):
    """The margin m_k of each axis is the smallest m whose tail, the sum
    of f_k at offsets |j| > m, is at most tau sum f_k; the bound U is
    at most tau times the kernel's mass.  A kernel without factors has
    no margins."""
    kernel = GaussianKernel(matrix or ())
    kh = scale_kernel(kernel, TorusGrid(d, n), h)
    margins, bound = tail_margins(kh)
    tau = kernel_module._TAIL
    offset = np.minimum(np.arange(n), n - np.arange(n))
    for f, m in zip(kh.factors, margins):
        assert f[offset > m].sum() <= tau * f.sum() < f[offset > m - 1].sum()
    mass = kh.grid.cell_measure * math.prod(f.sum() for f in kh.factors)
    assert 0.0 < bound <= tau * mass * (1.0 + 1e-12)
    sheared = GaussianKernel(((1.2, 0.1), (0.1, 0.8)))
    assert tail_margins(scale_kernel(sheared, TorusGrid(2, 64), 4e-3)) is None


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("kernel", FACTORED, ids=["gaussian", "diagonal"])
def test_flip_update_matches_the_fft_convolution(n, kernel, rng):
    """K_h*u plus :func:`convolve_cells` over random flip sets of 1 up to
    n // 2 cells, with weights +1 and -1, equals the FFT convolution of
    the new field within 2e-15 (K_h*u lies in [0, 1]; measured at most
    5.6e-16 over five seeds), and 32 such sums in a row stay within
    4e-15 (measured at most 1.0e-15)."""
    grid = TorusGrid(2, n)
    kh = scale_kernel(kernel, grid, 1e-3)
    x1, x2 = grid.meshgrid()
    u = (((x1 - 0.5) ** 2 + (x2 - 0.4) ** 2) < 0.2**2).astype(np.float64)

    def update(conv, v, cells):
        cells = np.sort(cells)
        weights = 1.0 - 2.0 * v.flat[cells]  # +1 where a cell enters
        out = convolve_cells(kh, cell_box(grid, cells), weights) + conv
        v.flat[cells] += weights
        return out

    ku = kh.convolve(u)
    for count in (1, 2, 7, 40, n // 4, n // 2):
        v = u.copy()
        kv = update(ku, v, rng.choice(grid.cell_count, count, replace=False))
        assert np.abs(kv - kh.convolve(v)).max() <= 2e-15
    v, kv = u.copy(), ku
    for _ in range(32):
        kv = update(kv, v, rng.choice(grid.cell_count, n // 2, replace=False))
    assert np.abs(kv - kh.convolve(v)).max() <= 4e-15


def test_only_diagonal_gaussians_keep_axis_factors():
    """The axis factors are read-only and their outer product is the
    sample up to rounding, in 2-d and 3-d; the tent and a sheared L have
    none."""
    for kernel, d in [*((k, 2) for k in FACTORED), (GaussianKernel(), 3)]:
        kh = scale_kernel(kernel, TorusGrid(d, 32), 1e-2)
        assert all(not f.flags.writeable for f in kh.factors)
        product = functools.reduce(np.multiply.outer, kh.factors)
        assert np.abs(product - kh.values).max() <= 1e-15 * kh.values.max()
    for kernel in (TriangularKernel(), GaussianKernel(((1.2, 0.1), (0.1, 0.8)))):
        assert scale_kernel(kernel, TorusGrid(2, 64), 4e-3).factors is None


@pytest.mark.parametrize("d", [2, 3])
def test_factored_kernels_build_values_and_transform_on_request(d):
    """A diagonal Gaussian holds its axes alone.  Its values are built on
    request, with the bytes of the outer product times |det L| times
    h^{-d/2}; its transform is taken of a temporary outer product unless
    the values were built first, with the same bytes either way."""
    grid, h = TorusGrid(d, 32), 1e-2
    kernel = GaussianKernel(np.diag([1.3, 0.8, 1.1][:d]))
    scales, det = kernel.diagonal(d), kernel.det
    axes = kernel_module._gaussian_factors(scales, grid, math.sqrt(h))
    expected = functools.reduce(np.multiply.outer, axes, np.ones(())) * det * h ** (-0.5 * d)
    first = scale_kernel(kernel, grid, h)
    assert "values" not in vars(first) and "transform" not in vars(first)
    transform = first.transform
    assert "values" not in vars(first)
    assert transform.tobytes() == _rfftn(expected).tobytes()
    assert first.values.tobytes() == expected.tobytes()
    second = scale_kernel(kernel, grid, h)
    values = second.values
    assert second.transform.tobytes() == transform.tobytes() and second.values is values
    tent = scale_kernel(TriangularKernel(), grid, h)
    assert "values" in vars(tent) and tent.factors is None


@pytest.mark.parametrize(
    "d, n, kernel",
    [
        (2, 64, TriangularKernel()),
        (2, 64, GaussianKernel(((1.2, 0.1), (0.1, 0.8)))),
        (2, 128, GaussianKernel()),
        (3, 64, GaussianKernel()),
    ],
    ids=["tent", "sheared", "over_budget2", "over_budget3"],
)
def test_convolve_cells_takes_the_fft_without_factors_or_over_budget(d, n, kernel, rng):
    """Without axis factors, or when the cells' box costs more flops than
    ``_BOX_FLOPS_PER_FFT[d]`` n^d log2(n^d) (a scatter over the whole
    grid), convolve_cells gives the bytes of ``kh.convolve`` of the
    field that holds the weights on the cells."""
    grid = TorusGrid(d, n)
    kh = scale_kernel(kernel, grid, 4e-3 if d == 2 else 9e-3)
    cells = np.flatnonzero(rng.uniform(size=grid.cell_count) < 0.5)
    if kh.factors is not None:
        shape = cell_box(grid, cells)[1].shape
        budget = kernel_module._BOX_FLOPS_PER_FFT[d] * n**d * math.log2(n**d)
        assert _box_flops(n, shape) > budget
    weights = rng.uniform(0.5, 1.5, cells.size)
    field = np.zeros(grid.shape)
    field.flat[cells] = weights
    got = convolve_cells(kh, cell_box(grid, cells), weights)
    assert got.tobytes() == kh.convolve(field).tobytes()


@pytest.mark.parametrize(
    "kernel", [GaussianKernel(), TriangularKernel(radius=2.0)], ids=["factored", "values"]
)
def test_apply_to_the_transform_is_the_fft_convolution(kernel, rng):
    """apply(_rfftn(f)) is convolve(f) byte for byte, and it overwrites
    only the spectrum it is given."""
    grid = TorusGrid(2, 64)
    kh = scale_kernel(kernel, grid, 4e-3)
    f = rng.uniform(size=grid.shape)
    spectrum = _rfftn(f)
    kept = spectrum.copy()
    assert kh.apply(spectrum.copy()).tobytes() == kh.convolve(f).tobytes()
    assert spectrum.tobytes() == kept.tobytes()


def test_convolve_rejects_wrong_shape():
    grid = TorusGrid(2, 64)
    kh = scale_kernel(GaussianKernel(), grid, 4e-3)
    with pytest.raises(KernelError):
        kh.convolve(np.ones((32, 32)))


# --- the FFT entry point -----------------------------------------------------

@pytest.mark.parametrize("value", ["0", "-1", "abc", "2.5"])
def test_threads_variable_must_be_a_positive_integer(value):
    """``import ambo`` refuses the value before it reaches the BLAS caps."""
    src = str(Path(kernel_module.__file__).resolve().parents[1])
    env = {**os.environ, "AMBO_THREADS": value, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", "import ambo"], env=env, capture_output=True, text=True
    )
    assert done.returncode != 0
    assert f"ValueError: AMBO_THREADS must be a positive integer, got {value!r}" in done.stderr


@pytest.mark.parametrize("n", [256, 512])
def test_two_dimensional_transforms_equal_numpy_bytes(rng, n):
    """_rfftn transforms in place in its output and still gives the bytes
    of a plain numpy.fft.rfftn."""
    a = rng.standard_normal((n, n))
    forward = _rfftn(a)
    assert forward.tobytes() == np.fft.rfftn(a).tobytes()
    inverse = np.fft.irfftn(forward, s=a.shape, axes=(0, 1))
    assert _irfftn(forward, a.shape).tobytes() == inverse.tobytes()


def test_three_dimensional_transforms_match_numpy(rng):
    a = rng.standard_normal((96, 96, 96))
    forward, reference = _rfftn(a), np.fft.rfftn(a)
    assert forward.tobytes() == reference.tobytes()
    inverse = np.fft.irfftn(reference, s=a.shape, axes=(0, 1, 2))
    assert _irfftn(reference, a.shape).tobytes() == inverse.tobytes()


def _stray_fft_uses(path: Path) -> list:
    """numpy.fft uses outside kernel._rfftn/_irfftn, and every scipy.fft
    use or import."""
    tree = ast.parse(path.read_text())
    entry = set()
    for node in ast.walk(tree):
        if (
            path.name == "kernel.py"
            and isinstance(node, ast.FunctionDef)
            and node.name in ("_rfftn", "_irfftn")
        ):
            entry.update(id(inner) for inner in ast.walk(node))
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in ("numpy.fft", "scipy.fft") or (
                node.module in ("numpy", "scipy") and "fft" in names
            ):
                stray.append(node.lineno)
        elif isinstance(node, ast.Import):
            # A plain ``import numpy.fft`` binds only ``numpy``, whose .fft
            # uses the next branch finds; an alias would hide them.
            if any(
                a.name.startswith("scipy.fft")
                or (a.name.startswith("numpy.fft") and a.asname is not None)
                for a in node.names
            ):
                stray.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fft"
            and isinstance(node.value, ast.Name)
            and (
                node.value.id == "scipy"
                or (node.value.id in ("np", "numpy") and id(node) not in entry)
            )
        ):
            stray.append(node.lineno)
    return stray


def test_every_fft_goes_through_the_entry_point():
    src = Path(kernel_module.__file__).parent
    stray = {p.name: _stray_fft_uses(p) for p in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in stray.items() if lines} == {}


# --- construction ------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_an_identity_matrix_is_the_gaussian_byte_for_byte(d):
    """L = I given as a matrix and the empty matrix sample the same
    factors, values and transform, and induce the same gamma_K matrix."""
    grid, h = TorusGrid(d, 32), 1e-2
    plain, identity = GaussianKernel(), GaussianKernel(np.eye(d))
    a, b = scale_kernel(plain, grid, h), scale_kernel(identity, grid, h)
    assert [f.tobytes() for f in a.factors] == [f.tobytes() for f in b.factors]
    assert a.values.tobytes() == b.values.tobytes()
    assert a.transform.tobytes() == b.transform.tobytes()
    gammas = [induced_anisotropy(k, d).matrix.tobytes() for k in (plain, identity)]
    assert gammas[0] == gammas[1]


def test_gaussian_matrix_must_be_square_and_invertible():
    for matrix in (((1.0, 0.0),), [[]], ((1.0, 2.0), (2.0, 4.0))):
        with pytest.raises(KernelError, match="square|invertible"):
            GaussianKernel(matrix)
    with pytest.raises(KernelError, match="points have dimension 3"):
        GaussianKernel(((1.0, 0.0), (0.0, 2.0))).evaluate(np.zeros((4, 3)))


def test_triangular_kernel_needs_positive_radius():
    with pytest.raises(KernelError):
        TriangularKernel(radius=0.0)
