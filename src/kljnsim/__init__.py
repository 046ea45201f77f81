"""Noise-based (thermal-noise emulating) secure key exchange simulator.

Subpackages by concern: `noise` (signal synthesis), `circuit` (loop and cable
solvers), `protocol` (the honest parties), `attack` (current injection),
`defense` (detection), `privacy` (XOR amplification), `harness` (experiment
orchestration and I/O).
"""
from .exceptions import ConfigError, InferenceError, ShapeMismatchError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "InferenceError",
    "ShapeMismatchError",
    "__version__",
]
