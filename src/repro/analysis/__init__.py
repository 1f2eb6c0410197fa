"""Static dependence analysis and kernel verification for the mini ISA.

The dynamic side of this repository (DDT, cloaking, pipeline) trusts the
eighteen hand-written workload kernels to encode the memory-dependence
idioms the paper attributes to each SPEC'95 program.  This package is the
independent, trace-free check of that claim:

* :mod:`repro.analysis.cfg` — basic blocks and control-flow edges, with
  branch-target and halt-reachability validation;
* :mod:`repro.analysis.dataflow` — abstract register values (constants
  and data-label pointers) and definite-assignment checking;
* :mod:`repro.analysis.memdep` — static effective addresses, data-image
  bounds/alignment checks, and the may-alias RAR/RAW pair sets that
  over-approximate the paper's Section 3 dependence sets;
* :mod:`repro.analysis.depgraph` — loops (CFG SCCs), affine
  base+stride summaries with trip bounds, and the synonym sets /
  generation counts of the paper's Section 4;
* :mod:`repro.analysis.distance` — static RAR/RAW dependence-distance
  bounds (the Fig. 2 / Fig. 7 axes), the static coverage upper bound,
  and the predictor-sizing lint (``W_SF_UNDERSIZED``,
  ``W_DPNT_CONFLICT``);
* :mod:`repro.analysis.verifier` — one-call orchestration and the
  raising ``verify_program`` hook used by ``Workload.program(verify=True)``;
* ``python -m repro.analysis`` — the lint CLI (see docs/analysis.md).

``repro.experiments.ext_static_distance`` closes the loop: it replays
the *dynamic* DDT pair stream and distance measurements against the
static pair sets and bounds (soundness + tightness).
"""

from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.depgraph import (
    AccessSummary,
    DepGraph,
    SynonymSet,
    build_depgraph,
    cyclic_blocks,
    strongly_connected_components,
    word_footprint,
)
from repro.analysis.distance import (
    DistanceReport,
    PCDistance,
    analyze_distances,
    lint_config,
)
from repro.analysis.memdep import analyze_memory, data_regions, may_alias
from repro.analysis.report import (
    AnalysisReport,
    Diagnostic,
    REPORT_SCHEMA_VERSION,
    Severity,
)
from repro.analysis.verifier import AnalysisError, analyze_program, verify_program

__all__ = [
    "AccessSummary",
    "AnalysisError",
    "AnalysisReport",
    "BasicBlock",
    "CFG",
    "DepGraph",
    "Diagnostic",
    "DistanceReport",
    "PCDistance",
    "REPORT_SCHEMA_VERSION",
    "Severity",
    "SynonymSet",
    "analyze_dataflow",
    "analyze_distances",
    "analyze_memory",
    "analyze_program",
    "build_cfg",
    "build_depgraph",
    "cyclic_blocks",
    "data_regions",
    "lint_config",
    "may_alias",
    "strongly_connected_components",
    "verify_program",
    "word_footprint",
]
