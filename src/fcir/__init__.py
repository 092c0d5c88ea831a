"""Solver and Monte Carlo benchmarks for the CIR model driven by fBm (H > 1/2)."""

from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .fbm import *  # noqa: F403
from .malliavin import *  # noqa: F403
from .model import *  # noqa: F403
from .scheme import *  # noqa: F403
from .scheme import step_constants  # outside scheme.__all__, which the benchmark tracer times

__version__ = "0.10.0"
