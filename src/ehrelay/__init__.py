"""Desk-scale simulator and analytical validator for an energy-harvesting
underlay cognitive relay network with Poisson-distributed nodes.

Subpackages:
  config    - configuration, unit conversion, validation
  geometry  - Poisson fields, fading, interference, guard zones
  analytics - closed forms, quadrature, composed success probabilities
  simulate  - block-batched Monte Carlo of the three-slot protocol
  cli       - simulate / analyze / sweep / compare commands
"""

from .config import SystemConfig, validate, ConfigError
from .analytics import AnalyticBreakdown, analyze
from .simulate import SCHEMES, EstimateCI, Outcomes, simulate, simulate_all

__version__ = "0.1.0"

__all__ = [
    "SystemConfig", "validate", "ConfigError",
    "AnalyticBreakdown", "analyze",
    "SCHEMES", "EstimateCI", "Outcomes", "simulate", "simulate_all",
    "__version__",
]
