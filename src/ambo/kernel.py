"""Convolution kernels, their grid sampling, and periodic convolution.

A run convolves with a Gaussian ``K(x) = |det L| G(Lx)``
(:class:`GaussianKernel`; G itself is L = I).  It meets the kernel
hypotheses of Esedoglu & Otto (CPAM 2015) in closed form, so no run
checks them:

* K is even and nonnegative, and has unit mass (substitute y = Lx);
* ``|x| K(x) <= c K(x/2)`` with ``c = sqrt(8/3) e^{-1/2} / sigma_min(L)``
  (0.99046 for G): the ratio is ``|x| exp(-3 |Lx|^2 / 16)``, with
  ``|x| <= |Lx| / sigma_min(L)``, and ``r exp(-3 r^2 / 16)`` peaks at
  ``r^2 = 8/3``;
* ``K >= a`` on the ball of radius b, for ``b = 1 / max(1, |L|_2)`` and
  ``a = (4 pi)^{-d/2} e^{-1/4} |det L|``, because ``|Lx| <= 1`` there.

It also has a nonnegative Fourier transform, on which the
energy-descent argument of the thresholding step rests.  The tent J
(:class:`TriangularKernel`), whose transform changes sign, serves only
the inequality suite of :mod:`ambo.energy`, which samples it and its
gradient.

The scaled family is ``K_h(x) = h^{-d/2} K(x / sqrt(h))``; it keeps unit
mass, because the substitution ``y = x/sqrt(h)`` contributes a factor
``h^{d/2}`` that the prefactor cancels.  Discretely we sample ``K_h`` at
the cell centres of a periodic grid, folding in the ``+-1`` periodic
images, which is exact to machine precision as long as the kernel
carries no appreciable mass at distance 3/2 from the origin (enforced
via the kernels' ``wrap_radius``).  Three sampling paths give that image
sum, the first up to rounding (a few 1e-16 of the peak):

* a Gaussian with a diagonal ``L`` is a product over the axes of 1-d
  image sums, so it is sampled as an outer product of one length-n
  array per axis (values only); the sampled kernel keeps these
  ``factors`` and builds its values and their transform only when they
  are asked for;
* a tent whose support radius ``radius*sqrt(h)`` is at most 1/2 meets
  only the zero image, so it and its gradient are evaluated on the
  support box alone, bit for bit equal to the image sum;
* everything else (a Gaussian with a non-diagonal ``L``, a wider
  tent) is evaluated on the full grid once per image, 3^d times.

Convolution is the mass-weighted circular sum

    (K (*) f)[i] = spacing^d * sum_j Ktilde[j] f[i - j],

evaluated with the FFT (the kernel transform is computed once, at the
first FFT convolution).  :meth:`SampledKernel.convolve` is the FFT
convolution; :meth:`SampledKernel.apply` is its second half, given the
field's transform.  :func:`convolve_cells` convolves a field that
vanishes off a set of cells given as their *cell box*, as a phase holds
it: per axis the cells' distinct coordinates and a bool mask on their
product.  It returns the result on a box of output coordinates
(the whole grid by default).  With a kernel that has factors it fills
the cell box with the field and contracts it with the rolled factors
along each axis, keeping only the output coordinates: d matrix
products, whose flops scale with the two boxes rather than with
n^d log n.  It takes this box product when it costs at most
``_BOX_FLOPS_PER_FFT[d]`` n^d log2(n^d) flops, and otherwise the FFT
convolution of the field placed on the grid; the two agree up to
rounding (a few 1e-16 of the maximum).  :func:`convolve_product`
convolves the indicator of a product of per-axis sets, such as a band
or the torus, from the factors alone: per axis a scalar sum or one
n-point circular convolution; :func:`convolved_square_sum` sums
(K_h*u)^2 over such a product from the same cell box, so the scheme's
defect needs no K_h*u off its step box.  :func:`tail_margins` gives
the margins of the scheme's step boxes and the bound on K_h*u off them.

Every real FFT of the package, the shift sums of :mod:`ambo.energy`
included, goes through :func:`_rfftn` and :func:`_irfftn`, which call
numpy's pocketfft (``numpy.fft``) on one thread.  A flow run of a
factored kernel on a band or the torus takes none.  FFTs remain for a
kernel without factors or a container that is not such a product (a
disk), for a phase whose box costs more than the FFT, and where a
given field is convolved whole: the monotonicity and inequality suites,
which transform each field once and ``apply`` it to each of their
kernels.  The box products run
on BLAS; the tests check that 1 and 2 BLAS threads write the same bytes.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ResolutionWarning
from .grid import TorusGrid, axis_index, on_box

__all__ = [
    "GaussianKernel",
    "TriangularKernel",
    "KernelError",
    "SampledKernel",
    "scale_kernel",
    "scale_kernel_gradient",
    "convolve_cells",
    "convolve_product",
    "convolved_square_sum",
    "tail_margins",
]

_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


# numpy.fft is looked up at each call, so a wrap installed on it from
# outside (perfbench's tracer) sees every transform.
def _rfftn(a: np.ndarray) -> np.ndarray:
    """Real FFT over every axis of ``a``."""
    # Given ``out``, numpy transforms the remaining axes in place instead
    # of allocating an array per axis: (256, 256) 0.70 -> 0.34 ms, (512,
    # 512) 3.3 -> 1.6 ms on 2 vCPUs, with the same bits.
    return np.fft.rfftn(a, out=np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), complex))


def _irfftn(a: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of :func:`_rfftn` for a real array of ``shape``."""
    return np.fft.irfftn(a, s=shape, axes=tuple(range(len(shape))))


class KernelError(ValueError):
    """Raised for malformed kernels or invalid sampling requests."""


@dataclass(frozen=True)
class GaussianKernel:
    """K(x) = |det L| G(Lx), G(x) = (4 pi)^(-d/2) exp(-|x|^2 / 4), for an
    invertible matrix L; the empty matrix (the default) is L = I in any d.

    K has unit mass (substitute y = Lx).  With the ``h^{-d/2} K(x/sqrt(h))``
    scaling G is the heat kernel at time ``t = h``.  ``det`` is |det L| and
    ``sigma_min`` the least singular value of L, both 1 for L = I.
    """

    matrix: tuple = ()

    def __post_init__(self) -> None:
        lmat = np.array(self.matrix, dtype=np.float64)
        det = sigma_min = 1.0
        if lmat.shape != (0,):
            if lmat.ndim != 2 or lmat.shape[0] != lmat.shape[1]:
                raise KernelError(f"matrix must be square, got shape {lmat.shape}")
            det = abs(np.linalg.det(lmat))
            if det < 1e-12:
                raise KernelError("matrix must be invertible")
            sigma_min = float(np.linalg.svd(lmat, compute_uv=False)[-1])
            lmat.flags.writeable = False
        object.__setattr__(self, "matrix", tuple(map(tuple, lmat)))  # () for L = I
        object.__setattr__(self, "_l", lmat if self.matrix else None)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "sigma_min", sigma_min)

    def linear_map(self, d: int) -> np.ndarray:
        """L (read-only), or a new d x d identity for the empty matrix."""
        return np.eye(d) if self._l is None else self._l

    def diagonal(self, d: int) -> np.ndarray | None:
        """diag L when L is a diagonal d x d matrix, else None."""
        lmat = self.linear_map(d)
        scales = np.diagonal(lmat)
        return scales if lmat.shape == (d, d) and np.array_equal(lmat, np.diag(scales)) else None

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """K at points of shape (..., d)."""
        x = np.asarray(x, dtype=np.float64)
        if self._l is not None:
            if x.shape[-1] != self._l.shape[0]:
                raise KernelError(
                    f"points have dimension {x.shape[-1]}, matrix is "
                    f"{self._l.shape[0]}x{self._l.shape[0]}"
                )
            x = x @ self._l.T
        d = x.shape[-1]
        r2 = np.sum(x * x, axis=-1)
        return (4.0 * math.pi) ** (-0.5 * d) * np.exp(-0.25 * r2) * self.det

    def wrap_radius(self) -> float:
        """Radius containing all but a ~1e-14 relative tail of K.

        Sampling with +-1 periodic images is exact enough when
        sqrt(h) * wrap_radius() <= 3/2.
        """
        # exp(-r^2/4) < 1e-14 for r > sqrt(4 * 14 ln 10) ~ 11.36
        return math.sqrt(4.0 * 14.0 * math.log(10.0)) / self.sigma_min


@dataclass(frozen=True)
class TriangularKernel:
    """Tent kernel J(x) = peak * (1 - |x|/radius) on the ball |x| < radius.

    The J of the fourth inequality of :func:`ambo.energy.inequality_suite`;
    no config selects it as a run kernel, because its transform changes
    sign (first at |k| radius ~ 5.9 in 2-d).

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

    def wrap_radius(self) -> float:
        return self.radius


# ---------------------------------------------------------------------------
# Grid sampling
# ---------------------------------------------------------------------------

class SampledKernel:
    """K_h sampled at cell centres with +-1 periodic images, origin at index 0.

    ``values`` are the samples, by whichever of the three sampling paths
    of the module docstring fits the kernel; ``factors`` are the
    read-only axis factors of a diagonal Gaussian (None for every other
    kernel), whose outer product is ``values`` up to rounding;
    ``transform`` is the real FFT of ``values``.

    ``SampledKernel(grid, h, values)`` holds the given samples.  A kernel
    from :meth:`from_axes` holds its axes alone: ``values`` and
    ``transform`` are built on first request and kept.  Its transform is
    taken of a temporary ``values``, which is dropped again unless
    ``values`` was requested first, so a run whose steps read only the
    factors and the transform never holds the samples.
    """

    factors: tuple | None = None

    def __init__(self, grid: TorusGrid, h: float, values: np.ndarray) -> None:
        if values.shape != grid.shape:
            raise KernelError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid, self.h, self.values = grid, h, values

    @classmethod
    def from_axes(
        cls, grid: TorusGrid, h: float, axes: list[np.ndarray], constants: tuple
    ) -> "SampledKernel":
        """The kernel whose values are the outer product of ``axes``, one
        length-n array per axis, times each of ``constants`` in turn; its
        first factor is the first axis times their product."""
        kh = object.__new__(cls)
        kh.grid, kh.h = grid, h
        kh._axes, kh._constants = axes, constants
        factors = [axes[0] * math.prod(constants), *axes[1:]]
        for f in factors:
            f.flags.writeable = False
        kh.factors = tuple(factors)
        return kh

    def _outer(self) -> np.ndarray:
        values = functools.reduce(np.multiply.outer, self._axes, np.ones(()))
        for c in self._constants:
            values *= c
        return values

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self._outer()

    @functools.cached_property
    def transform(self) -> np.ndarray:
        values = self.__dict__.get("values")  # the kept samples, if built
        return _rfftn(self._outer() if values is None else values)

    def convolve(self, f) -> np.ndarray:
        """Periodic convolution spacing^d * sum_j Ktilde[j] f[i-j]."""
        vals = np.asarray(f)
        if vals.shape != self.grid.shape:
            raise KernelError(
                f"field shape {vals.shape} != grid shape {self.grid.shape}"
            )
        return self.apply(_rfftn(vals))

    def apply(self, spectrum: np.ndarray) -> np.ndarray:
        """The FFT convolution of the field whose :func:`_rfftn` is
        ``spectrum``, which it overwrites (pass a copy to reuse it)."""
        spectrum *= self.transform
        out = _irfftn(spectrum, self.grid.shape)
        out *= self.grid.cell_measure
        return out


# Flops of the box product per n^d log2(n^d) up to which it replaces an
# FFT convolution.  Box product against one FFT convolution, min of 7 calls
# on 2 vCPUs with 1 and with 2 threads, for balls of radius 0.05-0.49:
# every box of at most 24 such units (2-d, n = 256-1024) or 16 (3-d,
# n = 48-96) took at most 0.6 of the FFT's time, and the boxes that came
# near the FFT's time cost 32-88 units in 2-d (20-24 at n = 128) and
# 15-35 in 3-d.  The ball3d phase, radius 0.3 at (3, 96), costs 11.2
# units: 5.7-9.8 ms against 19-33 ms.
_BOX_FLOPS_PER_FFT = {2: 24.0, 3: 16.0}


def _box_flops(n: int, shape: tuple, outputs: tuple | None = None) -> int:
    """Flops of the box product over a box of axis sizes m_1 ... m_d with
    b_1 ... b_d output coordinates (n each by default): contracting axis
    k (from 1) costs 2 b_1 ... b_k m_k ... m_d."""
    outputs = (n,) * len(shape) if outputs is None else outputs
    return sum(
        2 * math.prod(outputs[: k + 1]) * math.prod(shape[k:]) for k in range(len(shape))
    )


def convolve_cells(
    kh: SampledKernel, cell_box: tuple, weights, box: tuple | None = None
) -> np.ndarray:
    """K_h applied to the field that equals ``weights`` (one per cell, in
    the C order of their box, or one for all) at the cells of
    ``cell_box`` and 0 elsewhere, on ``box``: per axis, the ascending
    output coordinates (None: the whole grid).  The result has the box's
    shape and C order.  ``cell_box`` is (axes, mask), per axis the
    cells' distinct coordinates, ascending, and a bool array on their
    product that is set at the cells (a phase's
    :attr:`~ambo.energy.PhaseField.cell_box`).

    With K_h = f_1 (x) ... (x) f_d, the convolution of a field held in
    the cells' box is the box contracted along each axis k with the
    m_k x b_k matrix whose rows are f_k rolled to the cells' coordinates
    and whose columns are the output coordinates on that axis.  Each
    output is the same dot product whatever the other outputs are; BLAS
    may still round the few outputs that it computes in a narrower edge
    tile (the last coordinates of an axis) in the last bit.  In the
    benchmark's droplet runs every step box had such outputs, at its far
    edges, about a margin from the phase, where K_h*u was at most 0.033
    (below the bound U off the box); in its ball3d runs there were none.
    That box product is taken when it costs at most
    ``_BOX_FLOPS_PER_FFT[d]`` n^d log2(n^d) flops; otherwise, as for a
    kernel without factors, the result is ``kh.convolve`` of the field
    placed on the grid, restricted to the box.
    """
    grid = kh.grid
    axes, mask = cell_box
    outputs = grid.shape if box is None else tuple(b.size for b in box)
    out = np.zeros(mask.shape)
    out[mask] = weights
    budget = _BOX_FLOPS_PER_FFT[grid.d] * grid.cell_count * math.log2(grid.cell_count)
    if kh.factors is not None and _box_flops(grid.n, mask.shape, outputs) <= budget:
        if not mask.size:
            return np.zeros(outputs)
        out *= grid.cell_measure
        columns = [slice(None)] * grid.d if box is None else map(axis_index, box)
        for factor, coords, keep in zip(kh.factors, axes, columns):
            # Axis k leads; it is replaced by a trailing output axis.
            rolled = _rolled(factor, coords, keep)
            out = (out.reshape(coords.size, -1).T @ rolled).reshape(
                out.shape[1:] + (rolled.shape[1],)
            )
        return out
    field = np.zeros(grid.shape)
    field[np.ix_(*axes)] = out
    out = kh.convolve(field)
    return out if box is None else on_box(out, box).copy()


def convolve_product(kh: SampledKernel, masks: tuple) -> np.ndarray:
    """K_h*1_E for a product set E = E_1 x ... x E_d of a kernel with
    axis factors, E_k the coordinates where the bool mask ``masks[k]``
    is set, as an array that broadcasts to the grid: the cell measure
    times, per axis, the scalar sum of f_k where E_k is the whole axis,
    else the n-point circular convolution of f_k with 1_{E_k} (the rows
    of f_k rolled to E_k, summed) along that axis."""
    d = kh.grid.d
    out = np.full((1,) * d, kh.grid.cell_measure)
    for axis, (factor, mask) in enumerate(zip(kh.factors, masks)):
        if mask.all():
            out = out * factor.sum()
        else:
            profile = _rolled(factor, np.flatnonzero(mask)).sum(axis=0)
            out = out * profile.reshape((-1,) + (1,) * (d - 1 - axis))
    return out


def convolved_square_sum(
    kh: SampledKernel, masks: tuple, cell_box: tuple, autocorrelations: tuple
) -> float:
    """The sum of (K_h*u)^2 over a product set E = E_1 x ... x E_d (bool
    ``masks`` as in :func:`convolve_product`), u the indicator of the
    cells of ``cell_box`` (as in :func:`convolve_cells`), from the axis
    factors.

    It is cell^2 times the sum over cells y, z of prod_k G_k[y_k, z_k],
    with the Gram matrix G_k[y, z] = sum over x in E_k of
    f_k(x - y) f_k(x - z).  Where E_k is the whole axis, G_k[y, z] is
    a_k(z - y), a_k(j) = sum_x f_k(x) f_k(x + j) the periodic
    autocorrelation of f_k, given in ``autocorrelations[k]`` and read as
    a sliding-window slice; elsewhere, where that entry is None,
    G_k = R R^T, R the rows of f_k rolled to the cells' coordinates,
    with the columns in E_k.  The cells' box is contracted with G_k along
    each axis k, as :func:`convolve_cells` contracts, and summed over the
    cells.
    """
    axes, mask = cell_box
    if not mask.size:
        return 0.0
    out = mask.astype(np.float64)
    for factor, coords, extent, auto in zip(kh.factors, axes, masks, autocorrelations):
        if auto is not None:
            gram = _rolled(auto, coords, axis_index(coords))
        else:
            rows = _rolled(factor, coords, axis_index(np.flatnonzero(extent)))
            gram = rows @ rows.T
        out = (out.reshape(coords.size, -1).T @ gram).reshape(out.shape[1:] + (coords.size,))
    return float(out[mask].sum()) * kh.grid.cell_measure**2


def _rolled(factor: np.ndarray, shifts: np.ndarray, columns=slice(None)) -> np.ndarray:
    """The rows ``np.roll(factor, s)[columns]`` for each s in ``shifts``
    (a copy); ``columns`` is a slice or ascending indices."""
    n = factor.size
    doubled = np.concatenate([factor, factor])
    # Window j starts at doubled[j], so window n - s is factor rolled by s.
    windows = np.lib.stride_tricks.sliding_window_view(doubled, n)
    if isinstance(columns, slice):
        return windows[n - shifts, columns]
    return windows[np.ix_(n - shifts, columns)]


# The tail fraction tau of the step boxes of :mod:`ambo.scheme`: the
# margin m_k of axis k is the smallest m whose tail
# tail_k(m) = sum over |j| > m of f_k[j] is at most tau sum f_k.  Off the
# step box K_h*u <= U = cell max_k tail_k(m_k) prod_{j != k} sum f_j,
# about tau for a unit-mass kernel, and the certificate's bound on phi
# off the box is lower by 2 g_pv,max U; U bounds nothing else, as the
# defect is taken in closed form (:func:`convolved_square_sum`).  The
# certificate passes while U stays below (lowest - kth) / (2 g_pv,max),
# with lowest the minimum of g_pv K_h*1_container + wetting and kth the
# selection's threshold.  Over every step of the benchmark's droplet
# (rho = -0.5/0/+0.5) and ball3d (seeds 1-8) runs, that headroom was at
# least 0.095 (droplet, rho = -0.5, coarse stage) and 0.5 on ball3d, so
# tau = 5e-2 keeps U at about half of it.  A Gaussian's margin is then
# 2 standard deviations: 45 and 22 cells on droplet, 8 on ball3d.
_TAIL = 5e-2


def tail_margins(kh: SampledKernel) -> tuple[tuple, float] | None:
    """The step-box margins of a factored kernel and the bound U on
    K_h*u off a step box (``_TAIL``); None for a kernel without factors,
    whose steps use the whole grid."""
    if kh.factors is None:
        return None
    n = kh.grid.n
    offset = np.minimum(np.arange(n), n - np.arange(n))  # |j| of each index
    margins, tails, sums = [], [], []
    for f in kh.factors:
        ring = np.bincount(offset, weights=f)  # the mass at each |j|
        # beyond[m] = the mass at |j| > m, summed from the far end
        beyond = np.append(np.cumsum(ring[::-1])[::-1][1:], 0.0)
        total = float(f.sum())
        m = int(np.argmax(beyond <= _TAIL * total))
        margins.append(m)
        tails.append(float(beyond[m]))
        sums.append(total)
    bound = kh.grid.cell_measure * max(
        tail * math.prod(sums[:k] + sums[k + 1 :]) for k, tail in enumerate(tails)
    )
    return tuple(margins), bound


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


def _gaussian_factors(
    scales: np.ndarray, grid: TorusGrid, sqrt_h: float
) -> list[np.ndarray]:
    """The axis factors of G(L x / sqrt_h) for a diagonal L = diag(scales).

    G and the image sum both factorize over the axes, so each axis
    contributes one length-n array, the sum over s in {-1, 0, 1} of
    (4 pi)^{-1/2} exp(-((x + s) L_kk / sqrt_h)^2 / 4); the sample of
    |det L| G(L x / sqrt_h) is |det L| times their outer product.
    """
    coords = grid.centered_axis_coords()
    images = coords + np.array([[-1.0], [0.0], [1.0]])  # (3, n)
    factors = []
    for scale in scales:
        y = images / sqrt_h * scale
        factors.append(((4.0 * math.pi) ** -0.5 * np.exp(-0.25 * y * y)).sum(axis=0))
    return factors


def _sample(
    func, kernel: GaussianKernel | TriangularKernel, grid: TorusGrid, sqrt_h: float
) -> np.ndarray:
    """func (K or grad K) on the grid: the tent on its support, else all images."""
    if isinstance(kernel, TriangularKernel) and kernel.radius * sqrt_h <= 0.5:
        return _sample_on_support(func, grid, sqrt_h, kernel.radius)
    return _sample_with_images(func, grid, sqrt_h)


# The largest sqrt(h) * wrap_radius() that sampling with the +-1 periodic
# images serves: the kernel's mass beyond distance 3/2 is then negligible.
_WRAP_LIMIT = 1.5


def _check_resolution(
    kernel: GaussianKernel | TriangularKernel, grid: TorusGrid, h: float
) -> float:
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
    if sqrt_h * kernel.wrap_radius() > _WRAP_LIMIT:
        raise NumericalError(
            f"sqrt(h)={sqrt_h:.3g} is too large for +-1 periodic image "
            f"sampling (kernel tail radius {kernel.wrap_radius():.3g})"
        )
    return sqrt_h


def scale_kernel(
    kernel: GaussianKernel | TriangularKernel, grid: TorusGrid, h: float
) -> SampledKernel:
    """Sample K_h(x) = h^{-d/2} K(x/sqrt(h)) on the grid: a diagonal
    Gaussian by its axis factors (:meth:`SampledKernel.from_axes`, with
    the constants |det L| and h^{-d/2}), any other kernel by its values."""
    sqrt_h = _check_resolution(kernel, grid, h)
    scale = h ** (-0.5 * grid.d)
    scales = kernel.diagonal(grid.d) if isinstance(kernel, GaussianKernel) else None
    if scales is None:
        values = _sample(kernel.evaluate, kernel, grid, sqrt_h) * scale
        return SampledKernel(grid, h, values)
    return SampledKernel.from_axes(
        grid, h, _gaussian_factors(scales, grid, sqrt_h), (kernel.det, scale)
    )


def scale_kernel_gradient(kernel: TriangularKernel, grid: TorusGrid, h: float) -> np.ndarray:
    """Sample grad(K_h) analytically; returns shape grid.shape + (d,).

    grad(K_h)(x) = h^{-(d+1)/2} (grad K)(x / sqrt(h)).  Sampling the
    analytic gradient (rather than differencing the sampled kernel) keeps
    the array exactly odd under x -> -x, which the inequality checks rely
    on.  The only kernel with a gradient is the tent, sampled on its
    support box where that fits inside the zero image.
    """
    sqrt_h = _check_resolution(kernel, grid, h)
    values = _sample(kernel.gradient, kernel, grid, sqrt_h)
    return values * h ** (-0.5 * (grid.d + 1))
