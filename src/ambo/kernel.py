"""Convolution kernels, their grid sampling, and periodic convolution.

A kernel ``K`` is an even, nonnegative function on R^d with unit mass.
The scaled family is ``K_h(x) = h^{-d/2} K(x / sqrt(h))``; it keeps unit
mass, because the substitution ``y = x/sqrt(h)`` contributes a factor
``h^{d/2}`` that the prefactor cancels.  Discretely we sample ``K_h`` at
the cell centres of a periodic grid, folding in the ``+-1`` periodic
images, which is exact to machine precision as long as the kernel
carries no appreciable mass at distance 3/2 from the origin (enforced
via :meth:`Kernel.wrap_radius`).  Three sampling paths give that image
sum, the first up to rounding (a few 1e-16 of the peak):

* a Gaussian, or an elliptic Gaussian ``|det L| G(Lx)`` with a diagonal
  ``L``, is a product over the axes of 1-d image sums, so it is sampled
  as an outer product of one length-n array per axis (values only);
* a tent whose support radius ``radius*sqrt(h)`` is at most 1/2 meets
  only the zero image, so it and its gradient are evaluated on the
  support box alone, bit for bit equal to the image sum;
* everything else (an elliptic Gaussian with a non-diagonal ``L``, a
  wider tent, a Gaussian gradient) is evaluated on the full grid once
  per image, 3^d times.

Convolution is the mass-weighted circular sum

    (K (*) f)[i] = spacing^d * sum_j Ktilde[j] f[i - j],

evaluated either with the FFT (default; the kernel transform is
computed once, when the sampled kernel is built) or by direct summation
(an independent oracle used in tests).  Every real FFT of the package,
the shift sums of :mod:`ambo.energy` included, goes through
:func:`_rfftn` and :func:`_irfftn`, which call ``scipy.fft``.  A
transform of at least ``_THREADED_FFT_CELLS`` cells runs on
``AMBO_THREADS`` workers (default 1, capped at the CPUs this process
may use), a smaller one on a single worker, below which the threads
cost more than they save.  The worker count changes no bit of the
result: each 1-d transform is computed the same way whichever thread
runs it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import NumericalError, ResolutionWarning
from .grid import TorusGrid

__all__ = [
    "Kernel",
    "GaussianKernel",
    "EllipticGaussianKernel",
    "TriangularKernel",
    "KernelError",
    "SampledKernel",
    "scale_kernel",
    "scale_kernel_gradient",
    "validate_kernel",
    "make_kernel",
]

_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}

# Cells from which a transform is worth threading.  rfftn with scipy.fft
# on 2 vCPUs (min of 3 medians), 1 worker -> 2 workers: (96, 96, 96)
# 15.9 -> 7.1 ms, (64, 64, 64) 3.2 -> 1.9 ms, (512, 512) 2.4 -> 1.5 ms,
# but (384, 384) 0.97 -> 1.09 ms and (48, 48, 48) 1.06 -> 1.52 ms.
_THREADED_FFT_CELLS = 2**18


def _parse_threads(value: str | None) -> int:
    """The FFT worker count for an ``AMBO_THREADS`` value (unset: 1).

    A positive integer, capped at the number of CPUs this process may
    run on; anything else raises ValueError.
    """
    if value is None or value == "":
        return 1
    if not (value.isdecimal() and int(value) >= 1):
        raise ValueError(
            f"AMBO_THREADS must be a positive integer, got {value!r}"
        )
    return min(int(value), len(os.sched_getaffinity(0)))


_FFT_WORKERS = _parse_threads(os.environ.get("AMBO_THREADS"))


def _workers(shape: tuple) -> int:
    return _FFT_WORKERS if math.prod(shape) >= _THREADED_FFT_CELLS else 1


def _rfftn(a: np.ndarray) -> np.ndarray:
    """Real FFT over every axis of ``a``."""
    return scipy.fft.rfftn(a, workers=_workers(a.shape))


def _irfftn(a: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of :func:`_rfftn` for a real array of ``shape``."""
    return scipy.fft.irfftn(
        a, s=shape, axes=tuple(range(len(shape))), workers=_workers(shape)
    )


class KernelError(ValueError):
    """Raised for malformed kernels or invalid sampling requests."""


class Kernel:
    """Base class for analytic kernels; dimension is taken from the input."""

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """K at points of shape (..., d)."""
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad K at points of shape (..., d); same shape as ``x``."""
        raise NotImplementedError

    def suggested_cutoff(self, d: int) -> float:
        """Radius beyond which the tail of (1 + |x|) K is below ~1e-12."""
        raise NotImplementedError

    def wrap_radius(self) -> float:
        """Radius containing all but a ~1e-14 relative tail of K.

        Used to decide whether sampling with +-1 periodic images is exact
        enough: we require sqrt(h) * wrap_radius() <= 3/2.
        """
        raise NotImplementedError

    def positivity_pair(self, d: int) -> tuple[float, float]:
        """Constants (a, b) with K >= a on the ball of radius b."""
        raise NotImplementedError

    def mass_quadrature(self, d: int) -> float:
        """Unit-mass check by quadrature (independent of normalisation)."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """G(x) = (4 pi)^(-d/2) exp(-|x|^2 / 4).

    With the ``h^{-d/2} K(x/sqrt(h))`` scaling this is the heat kernel at
    time ``t = h``.
    """

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        r2 = np.sum(x * x, axis=-1)
        return (4.0 * math.pi) ** (-0.5 * d) * np.exp(-0.25 * r2)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return -0.5 * x * self.evaluate(x)[..., None]

    def suggested_cutoff(self, d: int) -> float:
        return 16.0

    def wrap_radius(self) -> float:
        # exp(-r^2/4) < 1e-14 for r > sqrt(4 * 14 ln 10) ~ 11.36
        return math.sqrt(4.0 * 14.0 * math.log(10.0))

    def positivity_pair(self, d: int) -> tuple[float, float]:
        b = 1.0
        return (4.0 * math.pi) ** (-0.5 * d) * math.exp(-0.25), b

    def mass_quadrature(self, d: int) -> float:
        return _radial_mass(self, d, self.suggested_cutoff(d))


@dataclass(frozen=True)
class EllipticGaussianKernel(Kernel):
    """K(x) = G(L x) |det L| for an invertible matrix L (unit mass)."""

    matrix: tuple = ()

    def __post_init__(self) -> None:
        lmat = np.asarray(self.matrix, dtype=np.float64)
        if lmat.ndim != 2 or lmat.shape[0] != lmat.shape[1]:
            raise KernelError(f"matrix must be square, got shape {lmat.shape}")
        det = np.linalg.det(lmat)
        if abs(det) < 1e-12:
            raise KernelError("matrix must be invertible")
        object.__setattr__(self, "matrix", tuple(map(tuple, lmat)))
        object.__setattr__(self, "_l", lmat)
        object.__setattr__(self, "_det", abs(det))
        object.__setattr__(
            self, "_sigma_min", float(np.linalg.svd(lmat, compute_uv=False)[-1])
        )
        object.__setattr__(self, "_gauss", GaussianKernel())

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self._l.shape[0]:
            raise KernelError(
                f"points have dimension {x.shape[-1]}, matrix is "
                f"{self._l.shape[0]}x{self._l.shape[0]}"
            )
        return self._gauss.evaluate(x @ self._l.T) * self._det

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inner = self._gauss.gradient(x @ self._l.T) * self._det
        return inner @ self._l  # chain rule: (grad G)(Lx) L

    def suggested_cutoff(self, d: int) -> float:
        return 16.0 / self._sigma_min

    def wrap_radius(self) -> float:
        return self._gauss.wrap_radius() / self._sigma_min

    def positivity_pair(self, d: int) -> tuple[float, float]:
        b = 1.0 / max(1.0, float(np.linalg.norm(self._l, 2)))
        # |Lx| <= |L| b <= 1 on B_b, so K >= G(unit) * det there.
        a = (4.0 * math.pi) ** (-0.5 * d) * math.exp(-0.25) * self._det
        return a, b

    def mass_quadrature(self, d: int) -> float:
        # Substituting y = Lx, the mass equals the Gaussian mass.
        return _radial_mass(self._gauss, d, self._gauss.suggested_cutoff(d))


@dataclass(frozen=True)
class TriangularKernel(Kernel):
    """Tent kernel J(x) = peak * (1 - |x|/radius) on the ball |x| < radius.

    The peak ``(d+1) / (omega_d radius^d)`` makes the mass one (in d=2
    with radius b this is ``3 / (pi b^2)``).  Wherever J is differentiable
    its gradient satisfies ``|grad J(x)| <= (2/radius) J(x/2)``: the
    gradient has constant magnitude peak/radius on the support, while
    ``J(x/2) >= peak/2`` there.
    """

    radius: float = 1.0

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise KernelError(f"radius must be positive, got {self.radius}")

    def peak(self, d: int) -> float:
        return (d + 1) / (_BALL_VOLUME[d] * self.radius**d)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        r = np.linalg.norm(x, axis=-1)
        return self.peak(d) * np.maximum(0.0, 1.0 - r / self.radius)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        d = x.shape[-1]
        r = np.linalg.norm(x, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[..., None] > 0.0, x / r[..., None], 0.0)
        inside = (r > 0.0) & (r < self.radius)
        return np.where(
            inside[..., None], -(self.peak(d) / self.radius) * unit, 0.0
        )

    def suggested_cutoff(self, d: int) -> float:
        return self.radius

    def wrap_radius(self) -> float:
        return self.radius

    def positivity_pair(self, d: int) -> tuple[float, float]:
        return 0.5 * self.peak(d), 0.5 * self.radius

    def mass_quadrature(self, d: int) -> float:
        return _radial_mass(self, d, self.radius)


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] (read-only).

    Solved once per process: ``leggauss`` runs an order x order
    eigenproblem on every call.
    """
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def _radial_mass(kernel: Kernel, d: int, r_cut: float, order: int = 256) -> float:
    """Mass of a radially symmetric kernel by 1-d Gauss-Legendre in r."""
    nodes, weights = _gauss_legendre(order)
    r = 0.5 * r_cut * (nodes + 1.0)
    w = 0.5 * r_cut * weights
    pts = np.zeros((order, d))
    pts[:, 0] = r
    vals = kernel.evaluate(pts)
    surface = d * _BALL_VOLUME[d]  # |S^{d-1}|
    return float(surface * np.sum(w * r ** (d - 1) * vals))


# ---------------------------------------------------------------------------
# Grid sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledKernel:
    """K_h sampled at cell centres with +-1 periodic images, origin at index 0.

    ``values`` come from :func:`scale_kernel`, by whichever of the three
    sampling paths of the module docstring fits the kernel; ``transform``
    is their real FFT, computed on construction.
    """

    grid: TorusGrid
    h: float
    values: np.ndarray
    transform: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise KernelError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "transform", _rfftn(self.values))

    def convolve(self, f, method: str = "fft") -> np.ndarray:
        """Periodic convolution spacing^d * sum_j Ktilde[j] f[i-j]."""
        vals = np.asarray(f)
        if vals.shape != self.grid.shape:
            raise KernelError(
                f"field shape {vals.shape} != grid shape {self.grid.shape}"
            )
        if method == "fft":
            spectrum = _rfftn(vals)
            spectrum *= self.transform
            out = _irfftn(spectrum, self.grid.shape)
            out *= self.grid.cell_measure
            return out
        if method == "direct":
            return _shifted_sums(self.values, vals) * self.grid.cell_measure
        raise KernelError(f"unknown convolution method {method!r}")


def _shifted_sums(kernel_vals: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Reference circular convolution by explicit shifted sums."""
    out = np.zeros_like(f)
    it = np.ndenumerate(kernel_vals)
    for idx, kv in it:
        if kv == 0.0:
            continue
        out += kv * np.roll(f, shift=idx, axis=tuple(range(f.ndim)))
    return out


def _points(coords: np.ndarray, d: int) -> np.ndarray:
    """The (coords.size**d, d) points of the product grid, C order."""
    mesh = np.meshgrid(*([coords] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _sample_with_images(func, grid: TorusGrid, sqrt_h: float) -> np.ndarray:
    """Sample x -> func(x / sqrt_h) over cell centres, folding +-1 images.

    ``func`` maps (N, d) points to (N,) or (N, d) values.  This is the
    general path: it evaluates ``func`` on the full grid once per image,
    3^d times, and serves every kernel that neither factorizes over the
    axes nor fits its support inside the zero image.
    """
    pts = _points(grid.centered_axis_coords(), grid.d)  # (N, d)
    acc = None
    for shift in itertools.product((-1.0, 0.0, 1.0), repeat=grid.d):
        shifted = (pts + np.asarray(shift)) / sqrt_h
        term = func(shifted)
        acc = term if acc is None else acc + term
    out_shape = grid.shape if acc.ndim == 1 else grid.shape + (grid.d,)
    return acc.reshape(out_shape)


def _sample_on_support(
    func, grid: TorusGrid, sqrt_h: float, radius: float
) -> np.ndarray:
    """Sample x -> func(x / sqrt_h) when func vanishes off the radius ball.

    With ``radius * sqrt_h <= 1/2`` every nonzero image point has
    |x_k| < radius * sqrt_h on each axis, which the +-1 images never
    reach, so only the cells of that box are evaluated.  They are added
    into zeros, so a -0.0 becomes 0.0 as in :func:`_sample_with_images`,
    whose result this equals bit for bit.
    """
    coords = grid.centered_axis_coords()
    index = np.flatnonzero(np.abs(coords / sqrt_h) < radius)
    term = func(_points(coords[index], grid.d) / sqrt_h)
    box = (index.size,) * grid.d + term.shape[1:]
    out = np.zeros(grid.shape + term.shape[1:])
    out[np.ix_(*[index] * grid.d)] += term.reshape(box)
    return out


def _sample_gaussian_product(
    scales: np.ndarray, det: float, grid: TorusGrid, sqrt_h: float
) -> np.ndarray:
    """Sample |det L| G(L x / sqrt_h) for a diagonal L = diag(scales).

    G and the image sum both factorize over the axes, so each axis
    contributes one length-n array, the sum over s in {-1, 0, 1} of
    (4 pi)^{-1/2} exp(-((x + s) L_kk / sqrt_h)^2 / 4), and the sample
    is their outer product.
    """
    coords = grid.centered_axis_coords()
    images = coords + np.array([[-1.0], [0.0], [1.0]])  # (3, n)
    out = np.ones(())
    for scale in scales:
        y = images / sqrt_h * scale
        factor = ((4.0 * math.pi) ** -0.5 * np.exp(-0.25 * y * y)).sum(axis=0)
        out = np.multiply.outer(out, factor)
    return out * det


def _diagonal_gaussian(kernel: Kernel, d: int):
    """(diag L, |det L|) when K = |det L| G(L x) with a diagonal L, else None."""
    if isinstance(kernel, GaussianKernel):
        return np.ones(d), 1.0
    if isinstance(kernel, EllipticGaussianKernel) and kernel._l.shape == (d, d):
        scales = np.diagonal(kernel._l)
        if np.array_equal(kernel._l, np.diag(scales)):
            return scales, kernel._det
    return None


def _sample(func, kernel: Kernel, grid: TorusGrid, sqrt_h: float) -> np.ndarray:
    """func (K or grad K) on the grid: the tent on its support, else all images."""
    if isinstance(kernel, TriangularKernel) and kernel.radius * sqrt_h <= 0.5:
        return _sample_on_support(func, grid, sqrt_h, kernel.radius)
    return _sample_with_images(func, grid, sqrt_h)


def _check_resolution(kernel: Kernel, grid: TorusGrid, h: float) -> float:
    if not h > 0.0:
        raise KernelError(f"h must be positive, got {h}")
    sqrt_h = math.sqrt(h)
    if sqrt_h < grid.spacing:
        raise NumericalError(
            f"kernel width sqrt(h)={sqrt_h:.3g} is below the grid spacing "
            f"{grid.spacing:.3g}; the sampled kernel would be meaningless"
        )
    if sqrt_h < 3.0 * grid.spacing:
        warnings.warn(
            f"kernel width sqrt(h)={sqrt_h:.3g} is under 3 grid spacings; "
            "expect degraded accuracy",
            ResolutionWarning,
            stacklevel=3,
        )
    if sqrt_h * kernel.wrap_radius() > 1.5:
        raise NumericalError(
            f"sqrt(h)={sqrt_h:.3g} is too large for +-1 periodic image "
            f"sampling (kernel tail radius {kernel.wrap_radius():.3g})"
        )
    return sqrt_h


def _kernel_values(kernel: Kernel, grid: TorusGrid, h: float) -> np.ndarray:
    """The values of K_h on the grid, without building a SampledKernel."""
    sqrt_h = _check_resolution(kernel, grid, h)
    diagonal = _diagonal_gaussian(kernel, grid.d)
    if diagonal is not None:
        values = _sample_gaussian_product(*diagonal, grid, sqrt_h)
    else:
        values = _sample(kernel.evaluate, kernel, grid, sqrt_h)
    return values * h ** (-0.5 * grid.d)


def scale_kernel(kernel: Kernel, grid: TorusGrid, h: float) -> SampledKernel:
    """Sample K_h(x) = h^{-d/2} K(x/sqrt(h)) on the grid."""
    return SampledKernel(grid=grid, h=h, values=_kernel_values(kernel, grid, h))


def scale_kernel_gradient(kernel: Kernel, grid: TorusGrid, h: float) -> np.ndarray:
    """Sample grad(K_h) analytically; returns shape grid.shape + (d,).

    grad(K_h)(x) = h^{-(d+1)/2} (grad K)(x / sqrt(h)).  Sampling the
    analytic gradient (rather than differencing the sampled kernel) keeps
    the array exactly odd under x -> -x, which the inequality checks rely
    on.  Only the tent takes a shortcut (its support box); a Gaussian
    gradient is not factorized, because the only caller samples the tent.
    """
    sqrt_h = _check_resolution(kernel, grid, h)
    values = _sample(kernel.gradient, kernel, grid, sqrt_h)
    return values * h ** (-0.5 * (grid.d + 1))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class KernelReport:
    """Outcome of :func:`validate_kernel`."""

    admissible: bool
    mass: float
    decay_constant: float
    positivity: tuple
    failures: list = field(default_factory=list)


def validate_kernel(
    kernel: Kernel,
    d: int,
    *,
    seed: int = 0,
) -> KernelReport:
    """Check symmetry, nonnegativity, unit mass, decay and positivity.

    * symmetry/nonnegativity: sampled at 4096 random points;
    * mass: quadrature within 1e-8 of 1;
    * decay: the constant c = sup |x| K(x) / K(x/2) over samples must be
      finite — i.e. no sample has K(x/2) = 0 while |x| K(x) > 0;
    * positivity: K >= a on the ball of radius b for the family's
      declared pair (a, b).
    """
    rng = np.random.default_rng(seed)
    n_samples = 4096
    failures: list[str] = []

    cutoff = kernel.suggested_cutoff(d)
    x = rng.normal(size=(n_samples, d))
    x *= (rng.uniform(0.0, cutoff, size=n_samples) / np.linalg.norm(x, axis=-1))[
        :, None
    ]
    kx = kernel.evaluate(x)
    if not np.allclose(kx, kernel.evaluate(-x), rtol=1e-13, atol=1e-300):
        failures.append("kernel is not even")
    if np.any(kx < 0.0):
        failures.append("kernel takes negative values")

    mass = kernel.mass_quadrature(d)
    if abs(mass - 1.0) > 1e-8:
        failures.append(f"kernel mass {mass!r} differs from 1 beyond 1e-8")

    khalf = kernel.evaluate(0.5 * x)
    numer = np.linalg.norm(x, axis=-1) * kx
    bad = (khalf == 0.0) & (numer > 0.0)
    if np.any(bad):
        failures.append("decay bound |x| K(x) <= c K(x/2) fails (c infinite)")
        c_decay = math.inf
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.where(khalf > 0.0, numer / khalf, 0.0)
        c_decay = float(ratios.max())

    a, b = kernel.positivity_pair(d)
    if not (a > 0.0 and b > 0.0):
        failures.append(f"positivity pair ({a}, {b}) is not positive")
    else:
        y = rng.normal(size=(n_samples, d))
        y *= (rng.uniform(0.0, b, size=n_samples) / np.linalg.norm(y, axis=-1))[
            :, None
        ]
        ky = kernel.evaluate(y)
        if np.any(ky < a * (1.0 - 1e-12)):
            failures.append(f"kernel falls below a={a} inside the radius-{b} ball")

    return KernelReport(
        admissible=not failures,
        mass=mass,
        decay_constant=c_decay,
        positivity=(a, b),
        failures=failures,
    )


def make_kernel(kind: str, **kwargs) -> Kernel:
    """Build a kernel from a plain-data description (used by configs)."""
    kinds = {
        "gaussian": GaussianKernel,
        "elliptic_gaussian": EllipticGaussianKernel,
        "triangular": TriangularKernel,
    }
    if kind not in kinds:
        raise KernelError(
            f"unknown kernel kind {kind!r}; expected one of {sorted(kinds)}"
        )
    if "matrix" in kwargs:
        kwargs["matrix"] = tuple(map(tuple, kwargs["matrix"]))
    return kinds[kind](**kwargs)
