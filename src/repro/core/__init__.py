"""The paper's contribution: speculative memory cloaking and bypassing.

This package implements the full prediction pipeline of Sections 3.1/3.2:
dependence detection feeds the Dependence Prediction and Naming Table
(DPNT), synonyms name communication groups, and the Synonym File (SF)
carries speculative values from producers (stores for RAW, earliest loads
for RAR) to consumers.  Bypassing's Synonym Rename Table (SRT), which links
consumers straight to the producing instruction, is the synonym-to-publish
time map of :class:`~repro.pipeline.cloaked_processor.CloakedProcessor`.

:class:`~repro.core.cloaking.CloakingEngine` is the streaming functional
model used for all accuracy experiments (Figures 6/7, Table 5.2);
:mod:`repro.pipeline.cloaked_processor` embeds the same structures into the
cycle-level timing model for Figures 9/10.
"""

from repro.core.cloaking import (
    CloakingEngine,
    CloakingStats,
    LoadOutcome,
    ObservedAccess,
)
from repro.core.config import CloakingConfig, CloakingMode
from repro.core.dpnt import DPNT, DPNTEntry
from repro.core.synonym_file import SFEntry, SynonymFile
from repro.core.synonyms import MergePolicy, SynonymAllocator

__all__ = [
    "CloakingConfig",
    "CloakingMode",
    "CloakingEngine",
    "CloakingStats",
    "LoadOutcome",
    "ObservedAccess",
    "DPNT",
    "DPNTEntry",
    "SynonymFile",
    "SFEntry",
    "SynonymAllocator",
    "MergePolicy",
]
