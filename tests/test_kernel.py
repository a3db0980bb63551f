"""Kernel tests: admissibility, scaling, and periodic convolution."""

import ast
import itertools
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from ambo import kernel as kernel_module
from ambo.errors import NumericalError, ResolutionWarning
from ambo.geometry import TorusGrid
from ambo.kernel import (
    EllipticGaussianKernel,
    GaussianKernel,
    KernelError,
    SampledKernel,
    TriangularKernel,
    _diagonal_gaussian,
    _irfftn,
    _parse_threads,
    _rfftn,
    _sample_with_images,
    make_kernel,
    scale_kernel,
    scale_kernel_gradient,
    validate_kernel,
)


# --- validation -------------------------------------------------------------

def test_gaussian_kernel_validates():
    report = validate_kernel(GaussianKernel(), 2)
    assert report.admissible
    assert report.mass == pytest.approx(1.0, abs=1e-8)
    assert math.isfinite(report.decay_constant)
    assert report.failures == []


def test_decay_constant_stable_under_resampling():
    c1 = validate_kernel(GaussianKernel(), 2, seed=1).decay_constant
    c2 = validate_kernel(GaussianKernel(), 2, seed=2).decay_constant
    assert abs(c1 - c2) < 1e-4 * c1


def test_elliptic_gaussian_validates():
    report = validate_kernel(EllipticGaussianKernel(matrix=((1.2, 0.1), (0.1, 0.8))), 2)
    assert report.admissible


def test_triangular_kernel_validates():
    report = validate_kernel(TriangularKernel(radius=0.8), 2)
    assert report.admissible
    assert report.mass == pytest.approx(1.0, abs=1e-8)
    assert report.positivity[0] > 0.0  # strictly positive near the origin


def test_three_dimensional_gaussian_validates():
    assert validate_kernel(GaussianKernel(), 3).admissible


@pytest.mark.parametrize("d", [2, 3])
def test_cached_quadrature_rule_gives_the_same_mass_bits(d):
    """The rule is solved once per process and shared read-only; every
    mass equals the one from a freshly solved rule, bit for bit."""
    rule = kernel_module._gauss_legendre(256)
    assert kernel_module._gauss_legendre(256) is rule
    assert not any(a.flags.writeable for a in rule)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    gauss, tent = GaussianKernel(), TriangularKernel(radius=0.8)
    for kernel, r_cut in ((gauss, gauss.suggested_cutoff(d)), (tent, tent.radius)):
        r = 0.5 * r_cut * (nodes + 1.0)
        pts = np.zeros((256, d))
        pts[:, 0] = r
        surface = d * kernel_module._BALL_VOLUME[d]
        fresh = float(
            surface * np.sum(0.5 * r_cut * weights * r ** (d - 1) * kernel.evaluate(pts))
        )
        assert kernel.mass_quadrature(d) == fresh


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

# The elliptic Gaussian of the extend_disk preset, whose gamma_K is diag(1.3, 0.7).
EXTEND_MATRIX = (((1.3 * math.pi) ** -0.5, 0.0), (0.0, (0.7 * math.pi) ** -0.5))


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
        (EllipticGaussianKernel(matrix=EXTEND_MATRIX), 2, 256, 1e-3, True),
        (
            EllipticGaussianKernel(matrix=((1.2, 0, 0), (0, 0.8, 0), (0, 0, 0.6))),
            3, 48, 2.5e-3, True,
        ),
        (EllipticGaussianKernel(matrix=((1.2, 0.1), (0.1, 0.8))), 2, 128, 1e-3, False),
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
    assert (_diagonal_gaussian(kernel, d) is not None) == product
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
    assert np.max(np.abs(kh.convolve(f) - kh.convolve(f, method="direct"))) < 1e-10


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


def test_convolve_rejects_wrong_shape():
    grid = TorusGrid(2, 64)
    kh = scale_kernel(GaussianKernel(), grid, 4e-3)
    with pytest.raises(KernelError):
        kh.convolve(np.ones((32, 32)))
    with pytest.raises(KernelError):
        kh.convolve(np.ones(grid.shape), method="magic")


# --- the FFT entry point -----------------------------------------------------

@pytest.mark.parametrize("value", ["0", "-1", "abc", "2.5"])
def test_threads_variable_must_be_a_positive_integer(value):
    with pytest.raises(ValueError, match=f"AMBO_THREADS.*{value!r}"):
        _parse_threads(value)


def test_threads_variable_defaults_to_one_and_is_capped_at_the_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert _parse_threads(None) == _parse_threads("") == _parse_threads("1") == 1
    assert _parse_threads(str(cpus)) == cpus
    assert _parse_threads(str(1000 * cpus)) == cpus


def test_only_large_transforms_are_threaded(monkeypatch):
    monkeypatch.setattr(kernel_module, "_FFT_WORKERS", 2)
    assert kernel_module._workers((64, 64, 64)) == kernel_module._workers((512, 512)) == 2
    assert kernel_module._workers((48, 48, 48)) == kernel_module._workers((384, 384)) == 1


@pytest.mark.parametrize("d, n", [(3, 64), (2, 512)])
def test_convolution_bytes_do_not_depend_on_the_worker_count(monkeypatch, rng, d, n):
    grid = TorusGrid(d, n)
    values = scale_kernel(GaussianKernel(), grid, 16.0 * grid.spacing**2).values
    f = rng.uniform(size=grid.shape)
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(kernel_module, "_FFT_WORKERS", workers)
        kh = SampledKernel(grid=grid, h=16.0 * grid.spacing**2, values=values)
        out.append(kh.convolve(f).tobytes())
    assert out[0] == out[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [256, 512])
def test_two_dimensional_transforms_equal_numpy_bytes(monkeypatch, rng, workers, n):
    monkeypatch.setattr(kernel_module, "_FFT_WORKERS", workers)
    a = rng.standard_normal((n, n))
    forward = _rfftn(a)
    assert forward.tobytes() == np.fft.rfftn(a).tobytes()
    inverse = np.fft.irfftn(forward, s=a.shape, axes=(0, 1))
    assert _irfftn(forward, a.shape).tobytes() == inverse.tobytes()


def test_three_dimensional_transforms_match_numpy(rng):
    a = rng.standard_normal((96, 96, 96))
    forward, reference = _rfftn(a), np.fft.rfftn(a)
    inverse = np.fft.irfftn(reference, s=a.shape, axes=(0, 1, 2))
    # Measured: 3.9e-16 (forward) and 5.6e-16 (inverse) of the peak.
    assert np.abs(forward - reference).max() <= 2e-15 * np.abs(reference).max()
    assert np.abs(_irfftn(reference, a.shape) - inverse).max() <= 2e-15 * np.abs(a).max()


def _stray_fft_uses(path: Path) -> list:
    """numpy.fft uses, and scipy.fft uses outside kernel._rfftn/_irfftn."""
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
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fft"
            and isinstance(node.value, ast.Name)
            and (
                node.value.id in ("np", "numpy")
                or (node.value.id == "scipy" and id(node) not in entry)
            )
        ):
            stray.append(node.lineno)
    return stray


def test_every_fft_goes_through_the_entry_point():
    src = Path(kernel_module.__file__).parent
    stray = {p.name: _stray_fft_uses(p) for p in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in stray.items() if lines} == {}


# --- construction ------------------------------------------------------------

def test_make_kernel_kinds():
    assert isinstance(make_kernel("gaussian"), GaussianKernel)
    k = make_kernel("elliptic_gaussian", matrix=[[1.2, 0.0], [0.0, 0.8]])
    assert isinstance(k, EllipticGaussianKernel)
    assert isinstance(make_kernel("triangular", radius=0.5), TriangularKernel)
    with pytest.raises(KernelError):
        make_kernel("sinc")


def test_triangular_kernel_needs_positive_radius():
    with pytest.raises(KernelError):
        TriangularKernel(radius=0.0)
