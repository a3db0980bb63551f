"""Helpers that only the tests use: constant tensions, the cell box of
flat cells, the direct-sum convolution oracle, a disk-fit oracle and the
quadrature oracle for the kernel-induced anisotropy."""

import math

import numpy as np

from ambo.anisotropy import AnisotropyError
from ambo.energy import PhaseField
from ambo.grid import cut_box
from ambo.scheme import SchemeError
from ambo.tensions import ModifiedTensions


def constant_tensions(grid, pv: float, sp: float, sv: float) -> ModifiedTensions:
    """Spatially constant tension fields on ``grid``."""
    return ModifiedTensions.from_fields(
        grid, *(np.full(grid.shape, float(value)) for value in (pv, sp, sv))
    )


def cell_box(grid, cells) -> tuple:
    """The cell box (axes, mask) of distinct flat cells, whose C order is
    their ascending order."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask.flat[cells] = True
    return cut_box(mask)


def shifted_sums(kernel_vals: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Reference circular convolution by explicit shifted sums."""
    out = np.zeros_like(f)
    for idx, kv in np.ndenumerate(kernel_vals):
        if kv == 0.0:
            continue
        out += kv * np.roll(f, shift=idx, axis=tuple(range(f.ndim)))
    return out


def best_fit_disk_mismatch(u: PhaseField) -> tuple[float, np.ndarray, float]:
    """Symmetric-difference fraction of u against its best-fit disk (d=2).

    The centre is the torus-aware centroid (circular mean per axis), the
    radius matches the volume.  Returns (fraction of area, centre, R).
    """
    grid = u.grid
    if grid.d != 2:
        raise SchemeError("best-fit disk is a 2-d measurement")
    vals = u.values
    total = vals.sum()
    if total == 0.0:
        raise SchemeError("empty phase has no best-fit disk")
    center = np.empty(2)
    for axis in range(2):
        coords = grid.axis_coords()
        weights = vals.sum(axis=1 - axis)
        angles = 2.0 * math.pi * coords
        mean_angle = math.atan2(
            float((weights * np.sin(angles)).sum()),
            float((weights * np.cos(angles)).sum()),
        )
        center[axis] = (mean_angle / (2.0 * math.pi)) % 1.0
    area = total * grid.cell_measure
    radius = math.sqrt(area / math.pi)
    pts = np.stack(grid.meshgrid(), axis=-1)
    disk = grid.torus_distance(pts, center) < radius
    mismatch = float(np.logical_xor(vals > 0.5, disk).sum() * grid.cell_measure)
    return mismatch / area, center, radius


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
    # By one-homogeneity gamma(nu) = |nu| gamma(nu/|nu|); a zero vector
    # takes e1, whose value the zero norm then annihilates.
    norms = np.linalg.norm(nu, axis=-1)
    units = np.where(norms[..., None] == 0.0, np.eye(d)[0], nu)
    units = units / np.linalg.norm(units, axis=-1, keepdims=True)
    flat_units = units.reshape(-1, d)
    # |x| = 16 / sigma_min(L) puts |Lx| >= 16, where the Gaussian is
    # below 1e-27 of its peak (L = I for the Gaussian itself).
    matrix = getattr(kernel, "matrix", None)
    r_cut = 16.0 / (np.linalg.svd(matrix, compute_uv=False)[-1] if matrix else 1.0)

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
