"""jacobilab: Jacobi analysis — special functions, the Jacobi transform,
hypergroup convolution, and a multiplier laboratory.

The package exports exactly what its submodules list in their __all__."""

from . import convolution, core, errors, lab, multiplier, specfun, transform
from .convolution import *
from .core import *
from .errors import *
from .lab import *
from .multiplier import *
from .specfun import *
from .transform import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, specfun, core, transform, convolution, multiplier, lab)
    for name in module.__all__
]
