"""Certified one-dimensional fixed-point search over exact rationals.

Sperner-labeled grid search, sign-change bracketing with exact residual
evidence, piecewise-linear extension of discrete vertex maps, and a running
demonstration that the labeling combinatorics survive over the rationals
while fixed-point existence does not.

Each module declares its public names in its own `__all__`; the package
re-exports them all.
"""

from . import counterexample, expr, plmap, rationals, solver, sperner
from .counterexample import *
from .expr import *
from .plmap import *
from .rationals import *
from .solver import *
from .sperner import *

__version__ = "0.1.0"

__all__ = []
__all__ += counterexample.__all__
__all__ += expr.__all__
__all__ += plmap.__all__
__all__ += rationals.__all__
__all__ += solver.__all__
__all__ += sperner.__all__
