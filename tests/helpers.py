"""Helpers that only the tests use: constant tensions and a disk-fit oracle."""

import math

import numpy as np

from ambo.energy import PhaseField
from ambo.scheme import SchemeError
from ambo.tensions import ModifiedTensions


def constant_tensions(grid, pv: float, sp: float, sv: float) -> ModifiedTensions:
    """Spatially constant tension fields on ``grid``."""
    return ModifiedTensions.from_fields(
        grid, *(np.full(grid.shape, float(value)) for value in (pv, sp, sv))
    )


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
