"""Truncated power-series laboratory for (p,q)-Lucas coefficient bounds.

The package builds, in order: exact-order truncated series arithmetic
(:mod:`.series`), (p,q)-Lucas polynomial sequences with an independent
generating-function route (:mod:`.lucas`), a three-term differential
operator on normalized analytic functions together with its coefficient
identities and sampled membership checks (:mod:`.bioperator`), closed-form
second/third-coefficient and Fekete-Szego bounds with degeneracy reporting
(:mod:`.bounds`), and a brute-force sweep that verifies every bound against
the functional it dominates (:mod:`.oracle`).  :mod:`.cli` exposes all of
it as the ``pqlucas`` command.
"""

from .series import *
from .lucas import *
from .bioperator import *
from .bounds import *
from .oracle import *
from . import bioperator, bounds, lucas, oracle, series

__version__ = "0.1.0"

__all__ = (
    series.__all__ + lucas.__all__ + bioperator.__all__ + bounds.__all__ + oracle.__all__
    + ["__version__"]
)
