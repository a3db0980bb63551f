"""Anisotropy tests: evaluation and the anisotropy a kernel induces."""

import math

import numpy as np
import pytest
from scipy import integrate

from ambo.anisotropy import (
    AnisotropyError,
    Elliptic,
    Isotropic,
    induced_anisotropy,
)
from ambo.kernel import EllipticGaussianKernel, GaussianKernel, TriangularKernel
from helpers import induced_gamma

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def _random_units(rng, count, dim=2):
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- evaluation -------------------------------------------------------------

def test_isotropic_is_scaled_euclidean_norm():
    gamma = Isotropic(2, 1.0)
    assert gamma(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert gamma(np.array([0.0, 0.0])) == 0.0


def test_elliptic_axis_values():
    gamma = Elliptic(2, matrix=((1.0, 0.0), (0.0, 4.0)))
    assert gamma(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert gamma(np.array([0.0, 1.0])) == pytest.approx(2.0)
    assert gamma(np.array([1.0, 1.0])) == pytest.approx(math.sqrt(5.0))


def test_homogeneity_evenness_bounds_on_random_directions(rng):
    gammas = [
        Isotropic(2, 0.7),
        Elliptic(2, matrix=((1.3, 0.2), (0.2, 0.7))),
    ]
    nus = _random_units(rng, 1000)
    lams = rng.uniform(-3.0, 3.0, size=1000)
    for gamma in gammas:
        lo, hi = gamma.bounds()
        vals = gamma(nus)
        assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)
        assert gamma(-nus) == pytest.approx(vals, rel=1e-12)
        scaled = gamma(lams[:, None] * nus)
        assert scaled == pytest.approx(np.abs(lams) * vals, rel=1e-12, abs=1e-15)


# --- kernel-induced anisotropy ---------------------------------------------

def test_induced_gamma_of_gaussian_matches_quadrature_oracle():
    # independent radial quadrature: the angular factor of |cos| integrates
    # to 4, so the value is 0.5 * (4pi)^-1 * 4 * int_0^inf r^2 e^{-r^2/4} dr
    radial, _ = integrate.quad(lambda r: r * r * math.exp(-r * r / 4.0), 0.0, 40.0)
    oracle = 0.5 / (4.0 * math.pi) * 4.0 * radial
    assert oracle == pytest.approx(INV_SQRT_PI, abs=1e-12)
    kernel = GaussianKernel()
    for theta in (0.0, 0.3, math.pi / 2, 2.0):
        val = induced_gamma(kernel, _unit(theta))
        assert val == pytest.approx(oracle, abs=1e-6)


def test_induced_gamma_is_even():
    kernel = EllipticGaussianKernel(matrix=((1.2, 0.1), (0.1, 0.8)))
    for theta in (0.1, 1.0, 2.5):
        nu = _unit(theta)
        assert induced_gamma(kernel, nu) == pytest.approx(
            induced_gamma(kernel, -nu), rel=1e-12
        )


def test_induced_anisotropy_of_gaussian_is_isotropic():
    gamma = induced_anisotropy(GaussianKernel(), 2)
    assert isinstance(gamma, Isotropic)
    assert gamma.c0 == pytest.approx(INV_SQRT_PI, abs=1e-12)


def _elliptic_induced_oracle(L, nu, n_theta=4096, n_r=400, r_max=20.0):
    """Brute-force product quadrature of the induced factor for G(Lx)detL."""
    thetas = (np.arange(n_theta) + 0.5) * 2.0 * np.pi / n_theta
    xi = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    xg, wg = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (xg + 1.0)
    wr = 0.5 * r_max * wg
    q = np.einsum("ij,ij->i", xi @ L.T, xi @ L.T)
    det = float(np.linalg.det(L))
    radial = det / (4.0 * np.pi) * np.array(
        [np.sum(wr * r * r * np.exp(-qi * r * r / 4.0)) for qi in q]
    )
    return 0.5 * float(np.sum(radial * np.abs(xi @ nu))) * (2.0 * np.pi / n_theta)


def test_elliptic_gaussian_induced_ratio_matches_oracle():
    L = np.array([[1.2, 0.0], [0.0, 0.8]])
    kernel = EllipticGaussianKernel(matrix=((1.2, 0.0), (0.0, 0.8)))
    gamma = induced_anisotropy(kernel, 2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    o1 = _elliptic_induced_oracle(L, e1)
    o2 = _elliptic_induced_oracle(L, e2)
    assert float(gamma(e1)) == pytest.approx(o1, abs=1e-6)
    assert float(gamma(e2)) == pytest.approx(o2, abs=1e-6)
    assert float(gamma(e1)) / float(gamma(e2)) == pytest.approx(o1 / o2, abs=1e-6)


def test_induced_anisotropy_of_sheared_elliptic_gaussian_is_elliptic():
    kernel = EllipticGaussianKernel(matrix=((1.2, 0.3), (0.3, 0.8)))
    gamma = induced_anisotropy(kernel, 2)
    assert isinstance(gamma, Elliptic)
    for theta in np.linspace(0.0, np.pi, 7):
        nu = _unit(theta)
        assert float(gamma(nu)) == pytest.approx(
            induced_gamma(kernel, nu), rel=1e-10
        )


def test_induced_anisotropy_needs_a_known_kernel():
    with pytest.raises(AnisotropyError):
        induced_anisotropy(object(), 2)
    with pytest.raises(AnisotropyError):  # the tent is no run kernel
        induced_anisotropy(TriangularKernel(), 2)
    with pytest.raises(AnisotropyError):
        induced_anisotropy(EllipticGaussianKernel(matrix=((1.0, 0.0), (0.0, 2.0))), 3)


# --- construction and rejection ----------------------------------------------

def test_elliptic_requires_spd_matrix():
    with pytest.raises(AnisotropyError):
        Elliptic(2, matrix=((1.0, 0.0), (0.0, -2.0)))
    with pytest.raises(AnisotropyError):
        Elliptic(2, matrix=((0.0, 1.0), (1.0, 0.0)))
