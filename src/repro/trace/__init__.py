"""Dynamic instruction traces: records, statistics, and sampling.

All the paper's mechanisms consume the committed dynamic instruction
stream.  This package defines the record type produced by the ISA
interpreter (:class:`~repro.trace.records.DynInst`), per-trace statistics
matching Table 5.1 of the paper, and the timing:functional sampling scheme
of Section 5.1.
"""

from repro.trace.records import DynInst
from repro.trace.sampling import SamplingPlan
from repro.trace.stats import TraceStats, collect_stats

__all__ = [
    "DynInst",
    "TraceStats",
    "collect_stats",
    "SamplingPlan",
]
