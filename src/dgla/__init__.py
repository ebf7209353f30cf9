"""Exact-arithmetic engine for free graded differential Lie algebra cell models.

The package splits into three layers plus a CLI:

- :mod:`dgla.algebra`: the free graded Lie algebra engine (contexts,
  elements as truncated tensor-algebra series, morphisms, canonical
  JSON serialization);
- :mod:`dgla.calculus`: Bernoulli numbers, truncated exp/log and the
  multi-argument BCH element, operator series in ``ad``, edge
  differentials, derivation extension, flatness defects, twisted
  differentials, and flows;
- :mod:`dgla.models`: cell-model builders (point, 1-complexes, the
  one-vertex disc, based and symmetric bigons), symmetry morphisms,
  and verification reports;
- :mod:`dgla.cli`: the ``dgla`` command-line tool.

The package exports the union of the three layers' ``__all__``, each
name listed once, in its own layer.
"""

from . import algebra, calculus, models
from .algebra import *
from .calculus import *
from .models import *

__version__ = "0.1.0"

__all__ = [*algebra.__all__, *calculus.__all__, *models.__all__]
