"""Fault injection with a differential correctness oracle.

The paper's central correctness claim (Section 3.4) is that cloaking and
bypassing are *speculative*: a mispredicted RAR/RAW link is always caught
by the verifying load, so committed architectural state is identical to
non-speculative execution no matter how wrong the predictor is.  This
package attacks that claim instead of assuming it:

* :mod:`repro.chaos.inject` — deterministic, seeded fault models that
  corrupt live predictor state (SF bit flips, stale values, synonym
  aliasing, forced confidence), perturb serialized trace streams, damage
  result-store objects, and sabotage harness workers.
* :mod:`repro.chaos.oracle` — a differential oracle that runs two
  interpreters in lockstep: a golden functional run, and a speculative
  run whose commit path goes through the cloaking engine's verification
  (speculatively committed values are fed back into the register file).
  Any divergence in the committed value stream, control flow or final
  architectural state is an invariant violation with a minimized repro.
* :mod:`repro.chaos.campaign` — seeded campaigns over the whole kernel
  suite plus graceful-degradation drills for the trace, store and
  harness layers, runnable as ``python -m repro.chaos`` and registered
  as the harness artefact ``chaos``.

See docs/chaos.md for the fault models, the invariant, and how to
reproduce a violation from a seed.
"""

from repro.chaos.inject import (
    PREDICTOR_FAULTS,
    STORE_FAULTS,
    TRACE_FAULTS,
    WORKER_FAULTS,
    AppliedFault,
    PredictorInjector,
    apply_predictor_fault,
    corrupt_store_object,
    corrupt_trace_text,
    worker_saboteur,
)
from repro.chaos.oracle import (
    Divergence,
    OracleOutcome,
    Violation,
    first_violation,
    run_oracle,
    verified_commit,
)
from repro.chaos.campaign import (
    CAMPAIGNS,
    DEFAULT_SEED,
    CampaignSpec,
    ChaosRow,
    DrillResult,
    harness_drill,
    run_drills,
    run_kernel_campaign,
    store_drill,
    trace_drill,
)

__all__ = [
    "AppliedFault",
    "CAMPAIGNS",
    "CampaignSpec",
    "ChaosRow",
    "DEFAULT_SEED",
    "Divergence",
    "DrillResult",
    "OracleOutcome",
    "PREDICTOR_FAULTS",
    "PredictorInjector",
    "STORE_FAULTS",
    "TRACE_FAULTS",
    "Violation",
    "WORKER_FAULTS",
    "apply_predictor_fault",
    "corrupt_store_object",
    "corrupt_trace_text",
    "first_violation",
    "harness_drill",
    "run_drills",
    "run_kernel_campaign",
    "run_oracle",
    "store_drill",
    "trace_drill",
    "verified_commit",
    "worker_saboteur",
]
