"""Cheeger deformations of invariant metrics on catalogued group actions.

Builds the deformed, vertically rescaled and limit metrics attached to an
isometric group action, and verifies their convergence rates, totally
geodesic orbit fibers and normal homogeneous pullback identity at
configurable numerical scale.
"""

from . import cheeger, gmanifold, lie_core, scenarios, tensor_calc, verify

# the kernels are plain numpy; kept for callers that record the compute mode
JIT_ENABLED = False

__version__ = "0.1.0"

__all__ = [
    "JIT_ENABLED",
    "__version__",
    "cheeger",
    "gmanifold",
    "lie_core",
    "scenarios",
    "tensor_calc",
    "verify",
]
