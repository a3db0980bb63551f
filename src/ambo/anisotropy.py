"""The surface-tension anisotropy induced by a convolution kernel.

The approximate energy is built from a single convolution kernel K, so
the particle's anisotropy is the one K induces on free interfaces,

    gamma_K(nu) = 1/2 * int |x . nu| K(x) dx.

It is one-homogeneous and even; we evaluate it on unit directions and
extend by homogeneity.  Every run kernel of :mod:`ambo.kernel` has a
closed form (:func:`induced_anisotropy`), so gamma_K is always one of two
families, both norms by construction:

* :class:`Isotropic`, ``gamma(nu) = c0 |nu|`` (Gaussian kernel);
* :class:`Elliptic`, ``gamma(nu) = sqrt(nu . A nu)`` with A symmetric
  positive definite, checked on construction (elliptic Gaussian kernels).

Each knows its bounds ``c_lo |nu| <= gamma(nu) <= c_hi |nu|``, which the
tension construction needs.  The tests check the closed forms against
a product quadrature of the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import EllipticGaussianKernel, GaussianKernel

__all__ = [
    "Anisotropy",
    "Isotropic",
    "Elliptic",
    "AnisotropyError",
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

def induced_anisotropy(kernel, dim: int) -> Anisotropy:
    """Return gamma_K in closed form for the run kernels of :mod:`ambo.kernel`.

    * Gaussian: the integral is ``1/2 * E|Z.nu|`` for Z with density
      (4 pi)^{-d/2} e^{-|z|^2/4}, a centred normal with variance 2 per
      axis, so ``gamma(nu) = |nu| / sqrt(pi)``;
    * elliptic Gaussian K(x) = G(Lx) |det L|: substituting y = Lx gives
      ``gamma(nu) = |L^{-T} nu| / sqrt(pi)``, i.e. A = (L L^T)^{-1} / pi.
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
    raise AnisotropyError(f"no closed-form induced anisotropy for {kernel!r}")
