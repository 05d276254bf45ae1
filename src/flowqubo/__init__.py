"""Configuration models for flowsheet design, penalty QUBOs, and solvers.

The pipeline: build a binary configuration program for a design space
(:mod:`flowqubo.flowsheets`), reformulate it into an unconstrained quadratic
model (:mod:`flowqubo.reformulate`), run interchangeable discrete solvers
(:mod:`flowqubo.solvers`), then score the samples and the continuous stage
(:mod:`flowqubo.metrics`).
"""

import sys as _sys

from .errors import *
from .flowsheets import *
from .ip import *
from .metrics import *
from .qubo import *
from .reformulate import *
from .solvers import *

__version__ = "0.1.0"

# each module from sys.modules: the star import bound ``reformulate`` to the function
__all__ = ["__version__"] + [
    name for module in ("errors", "flowsheets", "ip", "metrics", "qubo", "reformulate", "solvers")
    for name in _sys.modules[f"{__name__}.{module}"].__all__]
