"""Boundary-driven symmetric exclusion on a finite interval.

Simulation and exact verification tools for the exclusion process on sites
0..S+1 whose left boundary site is pinned empty and whose right boundary site
is pinned full. The subpackages cover forward Monte Carlo, the exact
stationary distribution at small sizes, the absorbing dual walk, the
meeting-ladder comparison with independent walkers, and the closed moment
ODE hierarchy.

sepsim runs in one thread. Its only BLAS work, the ladder's matrix products
and sweep's slope fit, is too small for OpenBLAS to split, but OpenBLAS
starts an idle worker thread when numpy loads, which spins for tens of
milliseconds and adds them to every command's CPU time. So BLAS is pinned to
one thread here, before numpy loads, unless OPENBLAS_NUM_THREADS is already
set; child processes of a program that imports sepsim inherit the value.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (  # after the pin: core loads numpy
    Configuration,
    ModelParams,
    default_initial_configuration,
)
from .errors import (
    NumericError,
    ResourceError,
    SepsimError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "ModelParams",
    "default_initial_configuration",
    "SepsimError",
    "ValidationError",
    "NumericError",
    "ResourceError",
    "__version__",
]
