"""Surface-tension anisotropies and the anisotropy induced by a convolution kernel.

An anisotropy is a one-homogeneous, even, positive function ``gamma`` on
R^d.  We work with the restriction to unit directions and extend by
homogeneity, so every family here satisfies homogeneity and evenness
exactly by construction.  The quantities of interest are

* ``gamma(nu)`` for direction fields ``nu`` (vectorised over leading axes),
* the bounds ``c_lo |nu| <= gamma(nu) <= c_hi |nu|``,
* ellipticity of ``gamma^2`` (positive definite Hessian), checked by
  finite differences in :func:`validate_anisotropy`.

A convolution kernel K induces the anisotropy

    gamma_K(nu) = 1/2 * int |x . nu| K(x) dx,

computed either in closed form (Gaussian families) or by product
quadrature with automatic refinement (:func:`induced_gamma`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Anisotropy",
    "Isotropic",
    "Elliptic",
    "DirectionTable2D",
    "CrystallineL1",
    "AnisotropyError",
    "induced_gamma",
    "induced_anisotropy",
    "validate_anisotropy",
]


class AnisotropyError(ValueError):
    """Raised when an anisotropy is malformed or fails validation."""


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

    # -- bounds ------------------------------------------------------------
    def bounds(self) -> tuple[float, float]:
        """(c_lo, c_hi) with c_lo|nu| <= gamma(nu) <= c_hi|nu|."""
        vals = self._eval_unit(_direction_samples(self.dim))
        return float(vals.min()), float(vals.max())


_N_SCAN = 4096


def _direction_samples(dim: int) -> np.ndarray:
    """A fixed fine set of unit directions used for scans and bounds."""
    if dim == 2:
        th = np.linspace(0.0, 2.0 * math.pi, _N_SCAN, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    # Fibonacci sphere: near-uniform, deterministic.
    n = 8192
    k = np.arange(n, dtype=np.float64)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


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


@dataclass(frozen=True)
class DirectionTable2D(Anisotropy):
    """gamma given by a table of values over equally spaced angles (d=2).

    ``values[k]`` is gamma at angle ``2*pi*k/len(values)``; evaluation
    interpolates linearly in angle.  Evenness requires the table to be
    pi-periodic, which is validated at construction.
    """

    values: tuple = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dim != 2:
            raise AnisotropyError("DirectionTable2D requires dim=2")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 8 or vals.size % 2:
            raise AnisotropyError(
                "table must be a 1-d array of even length >= 8"
            )
        if np.any(vals <= 0.0):
            raise AnisotropyError("table values must be positive")
        half = vals.size // 2
        if not np.allclose(vals, np.roll(vals, half), rtol=1e-10, atol=1e-12):
            raise AnisotropyError("table is not even (pi-periodic)")
        object.__setattr__(self, "values", tuple(vals))
        object.__setattr__(self, "_vals", vals)

    def _eval_unit(self, units: np.ndarray) -> np.ndarray:
        vals = self._vals
        m = vals.size
        th = np.arctan2(units[..., 1], units[..., 0]) % (2.0 * math.pi)
        t = th * (m / (2.0 * math.pi))
        k0 = np.floor(t).astype(np.intp) % m
        frac = t - np.floor(t)
        k1 = (k0 + 1) % m
        return (1.0 - frac) * vals[k0] + frac * vals[k1]

    def bounds(self) -> tuple[float, float]:
        return float(self._vals.min()), float(self._vals.max())


@dataclass(frozen=True)
class CrystallineL1(Anisotropy):
    """gamma(nu) = c0 * sum_i |nu_i|  (the l1 norm, scaled).

    Included as a stress case: it is a valid norm but gamma^2 is not
    uniformly convex, so :func:`validate_anisotropy` must reject it.
    """

    c0: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.c0 > 0.0:
            raise AnisotropyError(f"c0 must be positive, got {self.c0}")

    def _eval_unit(self, units: np.ndarray) -> np.ndarray:
        return self.c0 * np.abs(units).sum(axis=-1)

    def bounds(self) -> tuple[float, float]:
        return self.c0, self.c0 * math.sqrt(self.dim)


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


def induced_anisotropy(kernel, dim: int, *, table_size: int = _N_SCAN) -> Anisotropy:
    """Return gamma_K as an :class:`Anisotropy` object.

    Gaussian kernels admit closed forms and are returned as exact
    analytic families:

    * isotropic Gaussian: the integral reduces to
      ``1/2 * E|Z.nu|`` for Z with density (4 pi)^{-d/2} e^{-|z|^2/4},
      i.e. a centred normal with variance 2 per axis, so
      ``gamma(nu) = |nu| / sqrt(pi)``;
    * elliptic Gaussian K(x) = G(Lx) det L: substituting y = Lx gives
      ``gamma(nu) = |L^{-T} nu| / sqrt(pi)``.

    Other kernels are tabulated over ``table_size`` angles (d=2 only)
    from the quadrature in :func:`induced_gamma`.
    """
    from .kernel import EllipticGaussianKernel, GaussianKernel

    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    if isinstance(kernel, GaussianKernel):
        return Isotropic(dim=dim, c0=inv_sqrt_pi)
    if isinstance(kernel, EllipticGaussianKernel):
        lmat = np.asarray(kernel.matrix, dtype=np.float64)
        if lmat.shape != (dim, dim):
            raise AnisotropyError(
                f"kernel matrix is {lmat.shape}, expected ({dim}, {dim})"
            )
        # gamma(nu) = |L^{-T} nu|/sqrt(pi) = sqrt(nu . (L L^T)^{-1} nu)/sqrt(pi)
        a = np.linalg.inv(lmat @ lmat.T) / math.pi
        return Elliptic(dim=dim, matrix=tuple(map(tuple, a)))
    if dim != 2:
        raise AnisotropyError(
            "tabulated induced anisotropy is only implemented for dim=2; "
            "use a Gaussian-family kernel in 3-d"
        )
    th = np.linspace(0.0, 2.0 * math.pi, table_size, endpoint=False)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    vals = induced_gamma(kernel, dirs)
    return DirectionTable2D(dim=2, values=tuple(vals))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class AnisotropyReport:
    """Outcome of :func:`validate_anisotropy`."""

    admissible: bool
    bounds: tuple
    min_hessian_eig: float
    failures: list = field(default_factory=list)


def validate_anisotropy(gamma: Anisotropy) -> AnisotropyReport:
    """Check homogeneity, evenness, positivity bounds and ellipticity.

    Ellipticity means gamma^2 has a uniformly positive definite Hessian;
    it is probed by central finite differences (step 1e-4) at 64 random
    unit directions drawn with seed 0.  Families with flat spots
    (e.g. :class:`CrystallineL1`, whose Hessian at a generic point has a
    zero eigenvalue) are reported as not admissible.
    """
    n_checks, fd_step = 64, 1e-4
    rng = np.random.default_rng(0)
    d = gamma.dim
    failures: list[str] = []

    dirs = rng.normal(size=(n_checks, d))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    scales = rng.uniform(0.25, 4.0, size=n_checks)

    g1 = gamma(dirs)
    if np.any(g1 <= 0.0):
        failures.append("gamma must be positive on unit directions")
    g_scaled = gamma(dirs * scales[:, None])
    if not np.allclose(g_scaled, scales * g1, rtol=1e-12, atol=1e-14):
        failures.append("homogeneity gamma(s nu) = s gamma(nu) violated")
    if not np.allclose(gamma(-dirs), g1, rtol=1e-12, atol=1e-14):
        failures.append("evenness gamma(-nu) = gamma(nu) violated")

    lo, hi = gamma.bounds()
    if not (0.0 < lo <= hi):
        failures.append(f"invalid bounds ({lo}, {hi})")
    if np.any(g1 < lo * (1.0 - 1e-9)) or np.any(g1 > hi * (1.0 + 1e-9)):
        failures.append("sampled values escape the declared bounds")

    def fsq(x: np.ndarray) -> float:
        return float(gamma(x[None, :])[0] ** 2)

    min_eig = math.inf
    eye = np.eye(d)
    for nu in dirs:
        hess = np.empty((d, d))
        for i in range(d):
            for j in range(i, d):
                hpp = fsq(nu + fd_step * (eye[i] + eye[j]))
                hpm = fsq(nu + fd_step * (eye[i] - eye[j]))
                hmp = fsq(nu - fd_step * (eye[i] - eye[j]))
                hmm = fsq(nu - fd_step * (eye[i] + eye[j]))
                hess[i, j] = hess[j, i] = (hpp - hpm - hmp + hmm) / (
                    4.0 * fd_step**2
                )
        min_eig = min(min_eig, float(np.linalg.eigvalsh(hess)[0]))
    if not min_eig > 1e-6:
        failures.append(
            f"gamma^2 is not uniformly convex (min Hessian eig {min_eig:.3e})"
        )

    return AnisotropyReport(
        admissible=not failures,
        bounds=(lo, hi),
        min_hessian_eig=min_eig,
        failures=failures,
    )


def make_anisotropy(kind: str, dim: int = 2, **kwargs) -> Anisotropy:
    """Build an anisotropy from a plain-data description (used by configs)."""
    kinds = {
        "isotropic": Isotropic,
        "elliptic": Elliptic,
        "table": DirectionTable2D,
        "crystalline_l1": CrystallineL1,
    }
    if kind not in kinds:
        raise AnisotropyError(
            f"unknown anisotropy kind {kind!r}; expected one of {sorted(kinds)}"
        )
    cls = kinds[kind]
    if "matrix" in kwargs:
        kwargs["matrix"] = tuple(map(tuple, kwargs["matrix"]))
    if "values" in kwargs:
        kwargs["values"] = tuple(kwargs["values"])
    return cls(dim=dim, **kwargs)
