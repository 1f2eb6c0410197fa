"""The complete evaluation as one combined report.

``python -m repro summary --scale 0.2`` regenerates every table and
figure (plus the hybrid extension) at the given scale and prints them in
paper order, with the headline comparisons at the end.

Execution goes through :mod:`repro.harness`: :func:`requests` names one
pooled grid of per-(artefact, workload) jobs, so ``--workers N`` fans it
out over worker processes while the default (``--workers 0``) runs the
same jobs inline, serially — parallel and serial output agree by
construction.  ``--store DIR`` (the default of ``python -m repro.harness
run summary``) adds the content-addressed result store, making reruns
incremental.
"""

from __future__ import annotations

from typing import List

from repro.experiments import fig9
from repro.experiments.report import signed_pct
from repro.harness.api import SweepOutcome
from repro.harness.jobs import render_rows
from repro.harness.registry import ARTEFACTS as _REGISTRY

#: (title, artefact name, scale multiplier) — timing experiments get a
#: smaller default because the cycle-level model is ~50x the cost per
#: instruction.  Derived from the harness registry (paper order).
ARTEFACTS = tuple(
    (spec.title, spec.name, spec.summary_multiplier)
    for spec in _REGISTRY.values()
    if spec.summary_multiplier is not None
)


def requests(scale: float) -> List[tuple]:
    """Every summary artefact's ``(name, scale)`` request, for one pooled
    :func:`repro.harness.api.run_artefacts` pass."""
    return [(name, scale * multiplier) for _, name, multiplier in ARTEFACTS]


def compose_sections(outcome: SweepOutcome) -> List[str]:
    """Render a sweep outcome into the report's ordered sections."""
    sections = []
    for title, name, _ in ARTEFACTS:
        rows = outcome.rows(name)
        # the harness owns dynamic module dispatch (CK101): it is outside
        # the code fingerprint, and the registry maps name -> module
        rendered = render_rows(name, rows)
        sections.append(f"{'=' * 72}\n{title}\n{'=' * 72}\n{rendered}")
        if title == "Figure 9":
            sections.append(_headline(rows))
    return sections


def _headline(fig9_rows) -> str:
    summary = fig9.summarize(fig9_rows)

    def fmt(config: str, cls: str) -> str:
        value = summary[config].get(cls)
        return signed_pct(value) if value is not None else "n/a"

    return (
        "HEADLINE (Figure 9, harmonic means, selective invalidation):\n"
        f"  RAW-based cloaking/bypassing:     "
        f"INT {fmt('selective/RAW', 'INT')}  FP {fmt('selective/RAW', 'FP')}"
        "   (paper +4.28% / +3.20%)\n"
        f"  RAW+RAR (this paper's technique): "
        f"INT {fmt('selective/RAW+RAR', 'INT')}"
        f"  FP {fmt('selective/RAW+RAR', 'FP')}"
        "   (paper +6.44% / +4.66%)"
    )
