"""ambo: anisotropic thresholding dynamics for particles on substrates.

A grid-based simulator and verification toolkit for the volume-preserving
evolution of a particle phase inside a rigid container on the flat torus,
driven by convolution-thresholding ("diffusion generated motion") energy
descent.  The package is organised along the objects of the underlying
construction:

* :mod:`ambo.grid` / :mod:`ambo.geometry` — periodic grids, container and
  substrate masks (disk, band, full torus), analytic signed distances;
* :mod:`ambo.anisotropy` — the surface-tension anisotropy a run kernel
  induces, in closed form;
* :mod:`ambo.kernel` — the run kernels (Gaussian, elliptic Gaussian), the
  tent of the inequality suite, grid sampling, FFT and direct
  convolution;
* :mod:`ambo.tensions` — torus-wide extension of the three surface
  tensions with pointwise triangle-inequality guarantees;
* :mod:`ambo.energy` — the approximate energy, sharp limits, convergence,
  monotonicity and inequality checks;
* :mod:`ambo.scheme` — the thresholding dynamics, volume preservation,
  contact-angle measurement;
* :mod:`ambo.harness` / :mod:`ambo.cli` — reproducible experiment driver
  and its command line.
"""

import os as _os

# AMBO_THREADS caps the BLAS/OpenMP pools, which the box products of
# ambo.kernel use, through the variables below, set before numpy loads;
# only effective when the package import is what first pulls numpy in.
# The FFTs always run on one thread.
_threads = _os.environ.get("AMBO_THREADS")
if _threads:
    if not (_threads.isdecimal() and int(_threads) >= 1):
        raise ValueError(f"AMBO_THREADS must be a positive integer, got {_threads!r}")
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"
