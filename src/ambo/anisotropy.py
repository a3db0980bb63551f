"""The surface-tension anisotropy induced by a convolution kernel.

The approximate energy is built from a single convolution kernel K, so
the particle's anisotropy is the one K induces on free interfaces,

    gamma_K(nu) = 1/2 * int |x . nu| K(x) dx.

Every run kernel of :mod:`ambo.kernel` is K(x) = |det L| G(Lx), with
L = I for the Gaussian, so gamma_K is always one family,

    gamma(nu) = sqrt(nu . A nu),  A = (L L^T)^{-1} / pi,

a norm for every symmetric positive definite A (checked on
construction).  Its bounds ``c_lo |nu| <= gamma(nu) <= c_hi |nu|``,
which the tension construction needs, are the square roots of A's
extreme eigenvalues.  The tests check the closed form against a product
quadrature of the integral.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import GaussianKernel

__all__ = ["Anisotropy", "AnisotropyError", "induced_anisotropy"]


class AnisotropyError(ValueError):
    """Raised when an anisotropy is malformed or cannot be evaluated."""


class Anisotropy:
    """gamma(nu) = sqrt(nu . A nu) for a symmetric positive definite A."""

    def __init__(self, matrix) -> None:
        a = np.array(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape != a.T.shape or not np.allclose(a, a.T, atol=1e-12):
            raise AnisotropyError(
                f"matrix must be square and symmetric, got {a.tolist()}"
            )
        eig = np.linalg.eigvalsh(a)
        if eig[0] <= 0.0:
            raise AnisotropyError(f"matrix must be positive definite, eigs {eig}")
        a.flags.writeable = False
        self.matrix = a
        self._bounds = math.sqrt(eig[0]), math.sqrt(eig[-1])

    def __call__(self, nu: np.ndarray) -> np.ndarray:
        """Evaluate gamma on an array of vectors with shape (..., d).

        Nothing is normalised, so gamma(0) = 0 with no special case.
        """
        a = self.matrix
        return np.sqrt(np.einsum("...i,ij,...j->...", nu, a, nu))

    def bounds(self) -> tuple[float, float]:
        """(c_lo, c_hi) with c_lo|nu| <= gamma(nu) <= c_hi|nu|."""
        return self._bounds


def induced_anisotropy(kernel: GaussianKernel, dim: int) -> Anisotropy:
    """Return gamma_K of a run kernel (a GaussianKernel) in closed form.

    The Gaussian's integral is ``1/2 * E|Z.nu|`` for Z with density
    (4 pi)^{-d/2} e^{-|z|^2/4}, a centred normal with variance 2 per axis,
    so ``gamma(nu) = |nu| / sqrt(pi)``.  For K(x) = G(Lx) |det L|,
    substituting y = Lx gives ``gamma(nu) = |L^{-T} nu| / sqrt(pi)``,
    i.e. A = (L L^T)^{-1} / pi, with L = I for the Gaussian.
    """
    if not isinstance(kernel, GaussianKernel):
        raise AnisotropyError(f"no closed-form induced anisotropy for {kernel!r}")
    lmat = kernel.linear_map(dim)
    if lmat.shape != (dim, dim):
        raise AnisotropyError(f"kernel matrix is {lmat.shape}, expected ({dim}, {dim})")
    return Anisotropy(np.linalg.inv(lmat @ lmat.T) / math.pi)
