"""Anisotropy tests: evaluation and the anisotropy a kernel induces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ambo.anisotropy import Anisotropy, AnisotropyError, induced_anisotropy
from ambo.kernel import GaussianKernel, TriangularKernel
from helpers import induced_gamma

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


# --- evaluation -------------------------------------------------------------

def test_isotropic_is_scaled_euclidean_norm():
    gamma = Anisotropy(0.7**2 * np.eye(2))
    assert gamma(np.array([3.0, 4.0])) == pytest.approx(3.5, rel=1e-15)
    assert gamma(np.array([0.0, 0.0])) == 0.0
    assert gamma.bounds() == pytest.approx((0.7, 0.7), rel=1e-15)
    assert not gamma.matrix.flags.writeable


def test_elliptic_axis_values():
    gamma = Anisotropy(((1.0, 0.0), (0.0, 4.0)))
    assert gamma(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert gamma(np.array([0.0, 1.0])) == pytest.approx(2.0)
    assert gamma(np.array([1.0, 1.0])) == pytest.approx(math.sqrt(5.0))
    assert gamma(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx([1.0, 2.0])


# Coordinates and scales on a 1e-6 lattice: zero vectors occur, and no
# square underflows into the subnormals, where rounding is no longer
# relative (nu . A nu is formed before the root, so |nu| < 1e-154 reads 0).
_COORD = st.floats(-3.0, 3.0).map(lambda x: round(x, 6))


@st.composite
def _spd_and_vectors(draw):
    """A random SPD matrix B^T B + eps I in d = 2 or 3, two vectors, a scale."""
    d = draw(st.sampled_from([2, 3]))
    b = np.array(draw(st.lists(_COORD, min_size=d * d, max_size=d * d)))
    eps = draw(st.floats(0.05, 1.0))
    vectors = st.lists(_COORD, min_size=d, max_size=d).map(np.array)
    matrix = b.reshape(d, d).T @ b.reshape(d, d) + eps * np.eye(d)
    return matrix, draw(vectors), draw(vectors), draw(_COORD)


@settings(max_examples=200, deadline=None)
@given(_spd_and_vectors())
def test_homogeneity_evenness_bounds_on_random_directions(case):
    """gamma is a norm: one-homogeneous, even, zero at 0, subadditive, and
    between the bounds, which it attains at A's extreme eigenvectors."""
    matrix, a, b, lam = case
    gamma = Anisotropy(matrix)
    d = len(a)
    ga, gb = float(gamma(a)), float(gamma(b))
    assert gamma(np.zeros(d)) == 0.0
    assert float(gamma(lam * a)) == pytest.approx(abs(lam) * ga, rel=1e-12)
    assert float(gamma(-a)) == pytest.approx(ga, rel=1e-12)
    assert float(gamma(a + b)) <= (ga + gb) * (1.0 + 1e-12)

    lo, hi = gamma.bounds()
    norm = float(np.linalg.norm(a))
    assert lo * norm * (1.0 - 1e-12) <= ga <= hi * norm * (1.0 + 1e-12)
    eigs, vecs = np.linalg.eigh(matrix)
    assert (lo, hi) == pytest.approx(np.sqrt(eigs[[0, -1]]), rel=1e-12)
    assert gamma(vecs.T[[0, -1]]) == pytest.approx([lo, hi], rel=1e-10)


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
    kernel = GaussianKernel(matrix=((1.2, 0.1), (0.1, 0.8)))
    for theta in (0.1, 1.0, 2.5):
        nu = _unit(theta)
        assert induced_gamma(kernel, nu) == pytest.approx(
            induced_gamma(kernel, -nu), rel=1e-12
        )


def test_induced_anisotropy_of_gaussian_is_isotropic():
    for d in (2, 3):
        gamma = induced_anisotropy(GaussianKernel(), d)
        assert np.array_equal(gamma.matrix, np.eye(d) / math.pi)
        assert gamma.bounds() == pytest.approx((INV_SQRT_PI,) * 2, rel=1e-15)


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
    kernel = GaussianKernel(matrix=((1.2, 0.0), (0.0, 0.8)))
    gamma = induced_anisotropy(kernel, 2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    o1 = _elliptic_induced_oracle(L, e1)
    o2 = _elliptic_induced_oracle(L, e2)
    assert float(gamma(e1)) == pytest.approx(o1, abs=1e-6)
    assert float(gamma(e2)) == pytest.approx(o2, abs=1e-6)
    assert float(gamma(e1)) / float(gamma(e2)) == pytest.approx(o1 / o2, abs=1e-6)


def test_induced_anisotropy_of_sheared_elliptic_gaussian_is_elliptic():
    kernel = GaussianKernel(matrix=((1.2, 0.3), (0.3, 0.8)))
    gamma = induced_anisotropy(kernel, 2)
    for theta in np.linspace(0.0, np.pi, 7):
        nu = _unit(theta)
        assert float(gamma(nu)) == pytest.approx(
            induced_gamma(kernel, nu), rel=1e-10
        )


@pytest.mark.parametrize(
    "kernel",
    [
        GaussianKernel(),
        GaussianKernel(matrix=((1.2, 0.1, 0.0), (0.1, 0.8, 0.2), (0.0, 0.2, 1.1))),
    ],
    ids=["gaussian", "sheared"],
)
def test_induced_anisotropy_in_3d_matches_quadrature_oracle(kernel):
    """Extend mode in 3-d divides the substrate tensions by gamma_K."""
    gamma = induced_anisotropy(kernel, 3)
    nus = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
    assert gamma(nus) == pytest.approx(induced_gamma(kernel, nus), rel=1e-10)


def test_induced_anisotropy_needs_a_known_kernel():
    with pytest.raises(AnisotropyError):
        induced_anisotropy(object(), 2)
    with pytest.raises(AnisotropyError):  # the tent is no run kernel
        induced_anisotropy(TriangularKernel(), 2)
    with pytest.raises(AnisotropyError):
        induced_anisotropy(GaussianKernel(matrix=((1.0, 0.0), (0.0, 2.0))), 3)


# --- construction and rejection ----------------------------------------------

def test_elliptic_requires_spd_matrix():
    with pytest.raises(AnisotropyError, match="positive definite"):
        Anisotropy(((1.0, 0.0), (0.0, -2.0)))
    with pytest.raises(AnisotropyError, match="positive definite"):
        Anisotropy(((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(AnisotropyError, match="symmetric"):
        Anisotropy(((1.0, 0.5), (0.0, 1.0)))
    for not_square in (np.eye(3)[:2], np.ones(2), np.ones((2, 2, 2))):
        with pytest.raises(AnisotropyError, match="square"):
            Anisotropy(not_square)
