"""The artefact registry: what the harness knows how to run.

Every entry names a module exposing the uniform interface
``run(scale, workloads) -> rows`` / ``render(rows) -> str``, and may add
a per-cell ``run_one(workload, scale, **params)`` when one cell must do
more than ``run`` over a single workload, or an ``observe(workload,
scale, models, **params)`` that lets inline runs share one trace pass,
and the models it drives, among cells (:mod:`repro.experiments.runner`).  A cell's store key is its
``JobSpec`` identity plus the code fingerprint; every registered module
lives outside ``repro.harness``, so the fingerprint covers its code and
the configuration constants it bakes in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class ArtefactSpec:
    """One runnable artefact: module location plus summary metadata."""

    name: str
    module: str                     # dotted import path
    title: str                      # section heading used by ``summary``
    summary_multiplier: Optional[float] = None  # None = not part of summary


#: Paper order; ``summary_multiplier`` mirrors ``summary.ARTEFACTS`` (the
#: timing experiments run at a reduced default scale).  Populated below
#: through :func:`register` so duplicate names fail loudly.
# staticcheck: ignore[FS101] import-time registry — register() runs at
# module top level (and in tests); parent and fork children see one state
ARTEFACTS: Dict[str, ArtefactSpec] = {}


def register(spec: ArtefactSpec) -> ArtefactSpec:
    """Add an artefact to the registry.

    Rejects duplicate names: a silent overwrite would redirect every
    cached result-store key and CLI invocation of the existing artefact
    to the new module, which is never what a typo'd registration wants.
    """
    if spec.name in ARTEFACTS:
        existing = ARTEFACTS[spec.name]
        raise ValueError(
            f"artefact {spec.name!r} is already registered "
            f"(module {existing.module}); pick a distinct name instead of "
            f"overwriting it")
    ARTEFACTS[spec.name] = spec
    return spec


for _spec in (
        ArtefactSpec("table51", "repro.experiments.table51",
                     "Table 5.1", 1.0),
        ArtefactSpec("fig2", "repro.experiments.fig2", "Figure 2", 1.0),
        ArtefactSpec("fig5", "repro.experiments.fig5", "Figure 5", 1.0),
        ArtefactSpec("fig6", "repro.experiments.fig6", "Figure 6", 1.0),
        ArtefactSpec("fig7", "repro.experiments.fig7", "Figure 7", 1.0),
        ArtefactSpec("table52", "repro.experiments.table52",
                     "Table 5.2", 1.0),
        ArtefactSpec("fig9", "repro.experiments.fig9", "Figure 9", 0.25),
        ArtefactSpec("fig10", "repro.experiments.fig10", "Figure 10", 0.25),
        ArtefactSpec("ext_hybrid", "repro.experiments.ext_hybrid",
                     "Extension: hybrid", 1.0),
        ArtefactSpec("ext_distance", "repro.experiments.ext_distance",
                     "Extension: distances", 1.0),
        ArtefactSpec("ext_predictors", "repro.experiments.ext_predictors",
                     "Extension: predictors"),
        ArtefactSpec("ext_static_distance",
                     "repro.experiments.ext_static_distance",
                     "Extension: static distance bounds"),
        ArtefactSpec("analysis", "repro.analysis.artefact",
                     "Static analysis"),
        ArtefactSpec("chaos", "repro.chaos.artefact",
                     "Chaos: fault injection"),
        ArtefactSpec("ext_serve_soak", "repro.serve.artefact",
                     "Extension: serve soak"),
):
    register(_spec)
del _spec


def get_artefact(name: str) -> ArtefactSpec:
    try:
        return ARTEFACTS[name]
    except KeyError:
        known = ", ".join(ARTEFACTS)
        raise ValueError(
            f"unknown artefact {name!r}; known: {known}") from None
