"""Trapped-ion frequency tracking and force-sensing toolkit.

Simulates and analyses a single-ion magnetic-gradient position probe:
a hyperfine resonance whose frequency moves with the ion's axial
position is interrogated with a two-point protocol, tracked against
drift, and converted to displacement and force readings.

Modules
-------
atomphys    field-dependent transition frequency, gradients, ion chains
lineshape   thermally averaged Rabi excitation profiles and widths
estimator   two-point asymmetry estimator and its error propagation
simulator   shot-level stochastic experiment simulation
analysis    Allan deviation, drift fits, spectrum fits, force figures
config      declarative run configuration files
cli         command-line front end (`iontrack`)
"""

from . import analysis, atomphys, config, estimator, lineshape, simulator
from .atomphys import *
from .lineshape import *
from .estimator import *
from .simulator import *
from .analysis import *
from .config import *

__version__ = "0.1.0"

__all__ = ["__version__", *atomphys.__all__, *lineshape.__all__, *estimator.__all__,
           *simulator.__all__, *analysis.__all__, *config.__all__]
