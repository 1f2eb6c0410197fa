"""Golden digests of every simulated count the timing model and engine produce.

The rendered experiment tables round to two decimals and the benchmark
pins one machine's IPC, so a cycle count could move without either
noticing.  This test drives four kernels, each at its own scale (with
sampling, so the functional warm-up path runs too), through ten timing
machines and four cloaking engines and pins a sha256 prefix of
everything they count:

* each ``SimResult``'s counters and its ``extra``;
* each machine's LSQ ``violations`` and ``loads_forwarded``;
* each engine's per-load outcome stream, ``CloakingStats`` counters and
  ``describe()``.

``gcc`` at 0.05 is the case whose LSQs record memory-order violations
(li, tom and com at 0.02 record none), so the violation path is pinned
too.  A change meant to be speed-only must leave every digest as it is.
Regenerate after an intentional change to the simulated machine with::

    PYTHONPATH=src python -c "
    from tests.test_sim_goldens import GOLDEN_DIGESTS, digest
    for abbrev, (scale, _) in GOLDEN_DIGESTS.items():
        print(f'    \\"{abbrev}\\": ({scale}, \\"{digest(abbrev, scale)}\\"),')"
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import CloakingConfig, CloakingEngine, CloakingMode
from repro.predictors.confidence import ConfidenceKind
from repro.pipeline import (CloakedProcessor, Processor, ProcessorConfig,
                            RecoveryPolicy)
from repro.trace.sampling import SamplingPlan
from repro.workloads import get_workload

PLAN = SamplingPlan(1, 2, observation=500)

#: kernel -> (scale, digest)
GOLDEN_DIGESTS = {
    "li": (0.02, "d685d8109533b62d"),
    "tom": (0.02, "1dc8fcaaa390e5bd"),
    "com": (0.02, "2f728d9a1c721674"),
    "gcc": (0.05, "ff29357d6d55bda0"),
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


def simulate(abbrev: str, scale: float) -> dict:
    """Every count the machines and engines produce on one kernel."""
    machines = _machines()
    engines = _engines()
    outcomes = {name: [] for name in engines}
    trace = get_workload(abbrev).trace(scale=scale)
    for inst, timing in PLAN.timed(trace):
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


def digest(abbrev: str, scale: float) -> str:
    text = json.dumps(simulate(abbrev, scale), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("abbrev", sorted(GOLDEN_DIGESTS))
def test_simulated_counts_stable(abbrev):
    scale, expected = GOLDEN_DIGESTS[abbrev]
    assert digest(abbrev, scale) == expected, (
        f"the timing model or cloaking engine counts something different "
        f"on {abbrev!r}; a speed-only change must not, and an intended "
        "change regenerates these digests (see module docstring) together "
        "with results/ and the benchmark's recorded digests"
    )


def test_goldens_exercise_memory_order_violations():
    """The naive LSQ must violate and store sets must learn from it, so a
    scale change cannot quietly stop covering ``violation_penalty`` and
    ``StoreSetPredictor.train_violation``."""
    record = simulate("gcc", GOLDEN_DIGESTS["gcc"][0])
    naive = record["machine/base/naive"]["violations"]
    store_sets = record["machine/base/store_sets"]["violations"]
    assert naive >= 2
    assert store_sets < naive
