"""Exact symbolic engine for differential conformal superalgebras.

The package computes lambda-brackets over differential Laurent rings
with exact cyclotomic coefficients, verifies the conformal superalgebra
axioms, builds twisted loop algebras and their mode algebras, and
carries out the Galois-cocycle bookkeeping that classifies the twisted
forms of the N=2 and N=4 superconformal algebras.
"""

from .cyclotomic import *
from .errors import *
from .laurent import *
from .core import *
from .algebras import *
from .morphisms import *
from .loops import *
from .cohomology import *
from .centroid import *
from .dsl import *

__all__ = []
__all__ += cyclotomic.__all__
__all__ += errors.__all__
__all__ += laurent.__all__
__all__ += core.__all__
__all__ += algebras.__all__
__all__ += morphisms.__all__
__all__ += loops.__all__
__all__ += cohomology.__all__
__all__ += centroid.__all__
__all__ += dsl.__all__
