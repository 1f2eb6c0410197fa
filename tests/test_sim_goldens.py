"""Golden digests of every simulated count the timing model and engine produce.

The rendered experiment tables round to two decimals and the benchmark
pins one machine's IPC, so a cycle count could move without either
noticing.  This test drives three kernels (with sampling, so the
functional warm-up path runs too) through ten timing machines and four
cloaking engines and pins a sha256 prefix of everything they count:

* each ``SimResult``'s counters and its ``extra``;
* each machine's LSQ ``violations`` and ``loads_forwarded``;
* each engine's per-load outcome stream, ``CloakingStats`` counters and
  ``describe()``.

A change meant to be speed-only must leave every digest as it is.
Regenerate after an intentional change to the simulated machine with::

    PYTHONPATH=src python -c "
    from tests.test_sim_goldens import GOLDEN_DIGESTS, digest
    for abbrev in GOLDEN_DIGESTS:
        print(f'    \\"{abbrev}\\": \\"{digest(abbrev)}\\",')"
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import CloakingConfig, CloakingEngine, CloakingMode
from repro.predictors.confidence import ConfidenceKind
from repro.pipeline import (CloakedProcessor, Processor, ProcessorConfig,
                            RecoveryPolicy)
from repro.trace.sampling import TIMING, SamplingPlan
from repro.workloads import get_workload

SCALE = 0.02
PLAN = SamplingPlan(1, 2, observation=500)

GOLDEN_DIGESTS = {
    "li": "d685d8109533b62d",
    "tom": "1dc8fcaaa390e5bd",
    "com": "2f728d9a1c721674",
}


def _machines():
    machines = {}
    for policy in ("naive", "no_speculation", "store_sets"):
        machines[f"base/{policy}"] = Processor(
            ProcessorConfig(lsq_policy=policy))
    for mode in (CloakingMode.RAW, CloakingMode.RAW_RAR):
        for recovery in RecoveryPolicy:
            machines[f"{mode.value}/{recovery.value}"] = CloakedProcessor(
                cloaking=CloakingConfig.paper_timing(mode),
                recovery=recovery)
    machines["split/no_speculation"] = CloakedProcessor(
        ProcessorConfig(lsq_policy="no_speculation"),
        cloaking=CloakingConfig.paper_timing(CloakingMode.RAW_RAR,
                                             split_ddt=True))
    return machines


def _engines():
    return {
        "accuracy/2-bit": CloakingEngine(CloakingConfig.paper_accuracy()),
        "accuracy/1-bit": CloakingEngine(CloakingConfig.paper_accuracy(
            confidence=ConfidenceKind.ONE_BIT)),
        "overlap": CloakingEngine(CloakingConfig.paper_overlap()),
        "rar-only": CloakingEngine(CloakingConfig.paper_accuracy(
            CloakingMode.RAR)),
    }


def simulate(abbrev: str) -> dict:
    """Every count the machines and engines produce on one kernel."""
    machines = _machines()
    engines = _engines()
    outcomes = {name: [] for name in engines}
    trace = get_workload(abbrev).trace(scale=SCALE)
    for segment in PLAN.segments(trace):
        timing = segment.mode == TIMING
        for inst in segment.instructions:
            for machine in machines.values():
                machine.feed(inst, timing=timing)
            for name, engine in engines.items():
                outcome = engine.observe(inst)
                if outcome is not None:
                    outcomes[name].append(outcome.value)
    record = {}
    for name, machine in machines.items():
        result = dataclasses.asdict(machine.finalize(abbrev))
        result["violations"] = machine.lsq.violations
        result["loads_forwarded"] = machine.lsq.loads_forwarded
        record[f"machine/{name}"] = result
    for name, engine in engines.items():
        record[f"engine/{name}"] = {
            "outcomes": hashlib.sha256(
                ",".join(outcomes[name]).encode()).hexdigest(),
            "stats": dataclasses.asdict(engine.stats),
            "describe": engine.describe(),
        }
    return record


def digest(abbrev: str) -> str:
    text = json.dumps(simulate(abbrev), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("abbrev", sorted(GOLDEN_DIGESTS))
def test_simulated_counts_stable(abbrev):
    assert digest(abbrev) == GOLDEN_DIGESTS[abbrev], (
        f"the timing model or cloaking engine counts something different "
        f"on {abbrev!r}; a speed-only change must not, and an intended "
        "change regenerates these digests (see module docstring) together "
        "with results/ and the benchmark's recorded digests"
    )
