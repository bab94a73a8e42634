"""Numerical laboratory for an SIS epidemic with nonlocal dispersal and a
hostile exterior.

The package discretizes the model on a midpoint quadrature grid, computes
its threshold quantities (principal eigenvalues, spectral bounds, the basic
reproduction number), solves for the disease-free equilibrium directly and
for the endemic one by Newton from above and then monotone iteration from
below, and time-integrates the dynamics to check extinction and
persistence against those predictions.
Report files are written by ``write_report`` alone.
"""

__version__ = "0.1.0"

from .domain import *
from .dynamics import *
from .equilibrium import *
from .errors import *
from .experiments import *
from .operators import *
from .spectral import *
