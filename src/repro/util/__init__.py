"""Generic building blocks shared by every substrate in the reproduction.

The tables in this package (:class:`~repro.util.lru.LRUTable`,
:class:`~repro.util.lru.SetAssociativeTable`) model the finite hardware
structures the paper relies on: the Dependence Detection Table, the DPNT,
the Synonym File and the value predictor are all either fully-associative
LRU tables or set-associative tables with LRU replacement within a set.
"""

from repro.util.lru import LRUTable, SetAssociativeTable
from repro.util.stats import harmonic_mean_speedup

__all__ = [
    "LRUTable",
    "SetAssociativeTable",
    "harmonic_mean_speedup",
]
