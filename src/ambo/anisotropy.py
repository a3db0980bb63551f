"""The surface-tension anisotropy induced by a convolution kernel.

The approximate energy is built from a single convolution kernel K, so
the particle's anisotropy is the one K induces on free interfaces,

    gamma_K(nu) = 1/2 * int |x . nu| K(x) dx.

It is one-homogeneous and even; we evaluate it on unit directions and
extend by homogeneity.  Every kernel of :mod:`ambo.kernel` has a closed
form (:func:`induced_anisotropy`), so gamma_K is always one of two
families, both norms by construction:

* :class:`Isotropic`, ``gamma(nu) = c0 |nu|`` (Gaussian and tent kernels);
* :class:`Elliptic`, ``gamma(nu) = sqrt(nu . A nu)`` with A symmetric
  positive definite, checked on construction (elliptic Gaussian kernels).

Each knows its bounds ``c_lo |nu| <= gamma(nu) <= c_hi |nu|``, which the
tension construction needs.  :func:`induced_gamma` evaluates the integral
by product quadrature for any kernel; it is the reference the closed
forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    _BALL_VOLUME,
    EllipticGaussianKernel,
    GaussianKernel,
    TriangularKernel,
)

__all__ = [
    "Anisotropy",
    "Isotropic",
    "Elliptic",
    "AnisotropyError",
    "induced_gamma",
    "induced_anisotropy",
]


class AnisotropyError(ValueError):
    """Raised when an anisotropy is malformed or cannot be evaluated."""


def _as_directions(nu: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Split vectors into (norms, unit directions).

    Zero vectors get an arbitrary unit direction; by 1-homogeneity their
    contribution is annihilated by the zero norm factor, so gamma(0) = 0.
    """
    nu = np.asarray(nu, dtype=np.float64)
    if nu.shape[-1] != dim:
        raise AnisotropyError(
            f"expected vectors with last axis {dim}, got shape {nu.shape}"
        )
    norms = np.linalg.norm(nu, axis=-1)
    safe = np.where(norms == 0.0, 1.0, norms)
    units = nu / safe[..., None]
    if np.any(norms == 0.0):
        e1 = np.zeros(dim)
        e1[0] = 1.0
        units = np.where(norms[..., None] == 0.0, e1, units)
    return norms, units


@dataclass(frozen=True)
class Anisotropy:
    """Base class; subclasses implement ``_eval_unit`` on unit vectors."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise AnisotropyError(f"dim must be 2 or 3, got {self.dim}")

    # -- core evaluation ---------------------------------------------------
    def _eval_unit(self, units: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, nu: np.ndarray) -> np.ndarray:
        """Evaluate gamma on an array of vectors with shape (..., dim)."""
        norms, units = _as_directions(nu, self.dim)
        return norms * self._eval_unit(units)

    def bounds(self) -> tuple[float, float]:
        """(c_lo, c_hi) with c_lo|nu| <= gamma(nu) <= c_hi|nu|."""
        raise NotImplementedError


@dataclass(frozen=True)
class Isotropic(Anisotropy):
    """gamma(nu) = c0 |nu|."""

    c0: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.c0 > 0.0:
            raise AnisotropyError(f"c0 must be positive, got {self.c0}")

    def _eval_unit(self, units: np.ndarray) -> np.ndarray:
        return np.full(units.shape[:-1], self.c0)

    def bounds(self) -> tuple[float, float]:
        return self.c0, self.c0


@dataclass(frozen=True)
class Elliptic(Anisotropy):
    """gamma(nu) = sqrt(nu . A nu) for symmetric positive definite A."""

    matrix: tuple = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.shape != (self.dim, self.dim):
            raise AnisotropyError(
                f"matrix must be {self.dim}x{self.dim}, got {a.shape}"
            )
        if not np.allclose(a, a.T, atol=1e-12):
            raise AnisotropyError("matrix must be symmetric")
        eig = np.linalg.eigvalsh(a)
        if eig[0] <= 0.0:
            raise AnisotropyError(f"matrix must be positive definite, eigs {eig}")
        object.__setattr__(self, "matrix", tuple(map(tuple, a)))
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_eigs", (float(eig[0]), float(eig[-1])))

    def _eval_unit(self, units: np.ndarray) -> np.ndarray:
        a = self._a
        return np.sqrt(np.einsum("...i,ij,...j->...", units, a, units))

    def bounds(self) -> tuple[float, float]:
        lo, hi = self._eigs
        return math.sqrt(lo), math.sqrt(hi)


# ---------------------------------------------------------------------------
# Kernel-induced anisotropy
# ---------------------------------------------------------------------------

def induced_gamma(kernel, nu: np.ndarray, *, tol: float = 1e-8):
    """Anisotropy induced by a kernel: gamma_K(nu) = 1/2 int |x.nu| K(x) dx.

    Evaluated by product quadrature in polar/spherical form,

        gamma_K(nu) = 1/2 int_0^R r^d int_{S^{d-1}} |xi.nu| K(r xi) dsigma dr,

    with Gauss-Legendre nodes in r on [0, R] (R chosen so the neglected
    tail is below 1e-10) and, in angle, Gauss-Legendre rules aligned with
    ``nu`` so that the kink of |xi.nu| sits on a panel boundary (the
    integrand is smooth on each panel, so the rule converges spectrally
    even for kernels that are merely continuous in angle).  The rule is
    refined by doubling both resolutions until two successive levels
    agree to ``tol``; the finest value is returned.

    ``nu`` may be a single vector or an array of vectors (..., d).
    """
    nu = np.asarray(nu, dtype=np.float64)
    single = nu.ndim == 1
    if single:
        nu = nu[None, :]
    d = nu.shape[-1]
    norms, units = _as_directions(nu, d)
    flat_units = units.reshape(-1, d)
    r_cut = kernel.suggested_cutoff(d)

    prev = None
    n_rad, n_ang = 32, 32
    for _ in range(8):
        val = _induced_gamma_level(kernel, flat_units, d, r_cut, n_rad, n_ang)
        if prev is not None and np.max(np.abs(val - prev)) < tol:
            break
        prev = val
        n_rad *= 2
        n_ang *= 2
    else:
        raise AnisotropyError(
            f"induced_gamma quadrature did not converge to {tol} "
            f"(last level {n_rad//2} radial x {n_ang//2} angular nodes)"
        )
    result = val.reshape(norms.shape) * norms
    return result[0] if single else result


def _induced_gamma_level(kernel, units, d, r_cut, n_rad, n_ang):
    """One quadrature level; ``units`` has shape (N, d)."""
    r_nodes, r_weights = np.polynomial.legendre.leggauss(n_rad)
    r = 0.5 * r_cut * (r_nodes + 1.0)
    wr = 0.5 * r_cut * r_weights * r**d  # radial weight incl. Jacobian r^d

    out = np.empty(len(units))
    # Chunk directions to keep the (chunk, R, A, d) point array bounded.
    chunk = max(1, int(2_000_000 // (n_rad * n_ang)))
    for start in range(0, len(units), chunk):
        u = units[start : start + chunk]
        xi, w_ang = _aligned_sphere_rule(u, n_ang)  # (C, A, d), (C, A)
        pts = r[None, :, None, None] * xi[:, None, :, :]  # (C, R, A, d)
        kv = kernel.evaluate(pts.reshape(-1, d)).reshape(pts.shape[:-1])
        radial = np.einsum("r,cra->ca", wr, kv)  # fold radius
        proj = np.abs(np.einsum("cd,cad->ca", u, xi))
        out[start : start + chunk] = 0.5 * np.sum(proj * radial * w_ang, axis=-1)
    return out


def _aligned_sphere_rule(units: np.ndarray, n_ang: int):
    """Sphere quadrature with panels split along the kink of |xi.nu|.

    Returns nodes ``xi`` of shape (N, A, d) and weights (N, A) such that
    sum_a w_a f(xi_a) approximates the surface integral of f for each
    direction in ``units``; the circle |xi.nu| = 0 lies on panel
    boundaries, so x -> |xi.nu| K(r xi) is smooth on every panel.
    """
    n, d = units.shape
    if d == 2:
        # Two half-circles {xi.nu >= 0} and {<= 0}; GL in the offset angle.
        phi, wphi = np.polynomial.legendre.leggauss(max(4, n_ang // 2))
        phi = 0.5 * math.pi * phi  # map to (-pi/2, pi/2)
        wphi = 0.5 * math.pi * wphi
        alpha = np.arctan2(units[:, 1], units[:, 0])
        th = alpha[:, None] + phi[None, :]
        fwd = np.stack([np.cos(th), np.sin(th)], axis=-1)
        xi = np.concatenate([fwd, -fwd], axis=1)
        w = np.broadcast_to(wphi, (n, phi.size))
        return xi, np.concatenate([w, w], axis=1)

    # d == 3: polar axis at nu; GL in mu = xi.nu on (0, 1), azimuth trapezoid.
    n_mu = max(4, n_ang // 4)
    n_ph = max(8, n_ang)
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    mu = 0.5 * (mu + 1.0)  # (0, 1)
    wmu = 0.5 * wmu
    ph = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    wph = 2.0 * math.pi / n_ph

    # Orthonormal frame (t1, t2, nu) per direction.
    helper = np.where(
        np.abs(units[:, [0]]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]
    )
    t1 = np.cross(units, helper)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(units, t1)

    s = np.sqrt(1.0 - mu**2)
    ring = np.einsum("m,p,id->impd", s, np.cos(ph), t1) + np.einsum(
        "m,p,id->impd", s, np.sin(ph), t2
    )  # (N, n_mu, n_ph, 3) tangential part of each node
    upper = np.einsum("m,id->imd", mu, units)[:, :, None, :] + ring
    xi = np.concatenate([upper, -upper], axis=2).reshape(n, -1, 3)
    w_half = np.broadcast_to((wmu * wph)[None, :, None], (n, n_mu, n_ph))
    w = np.concatenate([w_half, w_half], axis=2).reshape(n, -1)
    return xi, w


def induced_anisotropy(kernel, dim: int) -> Anisotropy:
    """Return gamma_K in closed form for the kernels of :mod:`ambo.kernel`.

    * Gaussian: the integral is ``1/2 * E|Z.nu|`` for Z with density
      (4 pi)^{-d/2} e^{-|z|^2/4}, a centred normal with variance 2 per
      axis, so ``gamma(nu) = |nu| / sqrt(pi)``;
    * elliptic Gaussian K(x) = G(Lx) |det L|: substituting y = Lx gives
      ``gamma(nu) = |L^{-T} nu| / sqrt(pi)``, i.e. A = (L L^T)^{-1} / pi;
    * tent of radius R: in polar form the angular factor is
      ``int |xi.nu| dsigma = 2 omega_{d-1}`` and the radial one
      ``int_0^R r^d J(r) dr = R / ((d+2) omega_d)``, so
      ``gamma(nu) = omega_{d-1} R / ((d+2) omega_d) |nu|``
      (R / (2 pi) in 2-d, 3R/20 in 3-d).

    Here omega_k is the volume of the unit ball in R^k.
    """
    if isinstance(kernel, GaussianKernel):
        return Isotropic(dim=dim, c0=1.0 / math.sqrt(math.pi))
    if isinstance(kernel, EllipticGaussianKernel):
        lmat = np.asarray(kernel.matrix, dtype=np.float64)
        if lmat.shape != (dim, dim):
            raise AnisotropyError(
                f"kernel matrix is {lmat.shape}, expected ({dim}, {dim})"
            )
        a = np.linalg.inv(lmat @ lmat.T) / math.pi
        return Elliptic(dim=dim, matrix=tuple(map(tuple, a)))
    if isinstance(kernel, TriangularKernel):
        c0 = _BALL_VOLUME[dim - 1] * kernel.radius / ((dim + 2) * _BALL_VOLUME[dim])
        return Isotropic(dim=dim, c0=c0)
    raise AnisotropyError(f"no closed-form induced anisotropy for {kernel!r}")
