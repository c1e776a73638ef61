"""Small persistent-data-structure utilities used throughout the model.

The SibylFS model is written as pure functions over immutable values (the
Lem higher-order-logic style).  This package provides the Python analogue
of Lem's ``fmap`` (:class:`repro.util.fdict.fdict`); Lem's ``finset`` is
a plain ``frozenset``.
"""

from repro.util.fdict import fdict

__all__ = ["fdict"]
