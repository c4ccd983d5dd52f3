"""Boundary-driven symmetric exclusion on a finite interval.

Simulation and exact verification tools for the exclusion process on sites
0..S+1 whose left boundary site is pinned empty and whose right boundary site
is pinned full. The subpackages cover forward Monte Carlo, the exact
stationary distribution at small sizes, the absorbing dual walk, the
meeting-ladder comparison with independent walkers, and the closed moment
ODE hierarchy.
"""

from .core import (
    Configuration,
    ModelParams,
    RngStream,
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
    "RngStream",
    "default_initial_configuration",
    "SepsimError",
    "ValidationError",
    "NumericError",
    "ResourceError",
    "__version__",
]
