"""pdikit: posterior dispersion indices and model-mismatch reports.

Compute WAPDI, WAIC and related per-datapoint dispersion quantities from a
matrix of posterior log-likelihood draws, fit the built-in desk-scale models
with an adaptive Metropolis sampler, and emit ranked mismatch reports.
"""

__version__ = "0.1.0"

from . import dispersion, samplers, taylor
from .dispersion import *
from .samplers import *
from .taylor import *

__all__ = ["__version__", *dispersion.__all__, *samplers.__all__, *taylor.__all__]
