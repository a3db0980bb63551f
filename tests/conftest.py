"""Shared fixtures: small grids and geometries reused across test modules."""

import numpy as np
import pytest

from ambo.geometry import TorusGrid, build_geometry, make_shape


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(2, 64)


@pytest.fixture(scope="session")
def grid128():
    return TorusGrid(2, 128)


@pytest.fixture(scope="session")
def grid256():
    return TorusGrid(2, 256)


@pytest.fixture(scope="session")
def disk_geometry(grid256):
    """Disk container of radius 0.3, substrate everywhere outside."""
    return build_geometry(make_shape("disk", center=(0.5, 0.5), radius=0.3), grid256)


@pytest.fixture(scope="session")
def full_geometry(grid256):
    """Container covering the whole torus (no substrate)."""
    return build_geometry(make_shape("full"), grid256)


@pytest.fixture(scope="session")
def band_geometry():
    """Flat substrate below y=0.25 at droplet-experiment resolution."""
    grid = TorusGrid(2, 512)
    return build_geometry(make_shape("band", lo=0.25, hi=0.95), grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20250814)
