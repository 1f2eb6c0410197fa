"""Experiment harnesses reproducing every table and figure of the paper.

One module per evaluation artefact, each runnable as
``python -m repro <name> [--scale S]``:

=============  =======================================================
Module         Paper artefact
=============  =======================================================
``table51``    Table 5.1 — benchmark execution characteristics
``fig2``       Figure 2 — RAR memory dependence locality (n = 1..4)
``fig5``       Figure 5 — loads with RAW/RAR dependences vs DDT size
``fig6``       Figure 6 — cloaking coverage and misspeculation rates
``fig7``       Figure 7 — address / value locality breakdowns
``table52``    Table 5.2 — cloaking/bypassing vs load value prediction
``fig9``       Figure 9 — speedup with naive memory dep. speculation
``fig10``      Figure 10 — speedup with no memory dep. speculation
=============  =======================================================

All harnesses accept a ``scale`` factor (1.0 = the standard workload
size of a few hundred thousand dynamic instructions per program) and an
optional workload subset, and return plain data structures so tests and
benchmarks can assert on them.
"""

# Submodules are imported lazily (``import repro.experiments.fig9``), so
# importing the package loads no experiment.
__all__ = [
    "table51", "fig2", "fig5", "fig6", "fig7", "table52", "fig9", "fig10",
]
