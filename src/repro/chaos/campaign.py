"""Seeded chaos campaigns over the kernel suite, plus layer drills.

A campaign runs the differential oracle (:mod:`repro.chaos.oracle`) for a
grid of single-fault plans — ``injections`` seeded sites × the predictor
fault models — on every selected kernel, and classifies each run:

* **armed**: the fault found eligible state to corrupt (an empty SF has
  no bits to flip — such no-op applications count as *unarmed*);
* **detected**: the corruption surfaced as extra verification failures
  relative to an uninjected run of the same kernel;
* **recovered**: detected, and committed state still matched the golden
  run (the paper's invariant held);
* **silent**: armed but never consumed — the corrupted entry was
  overwritten or evicted before any load used it (also invariant-safe);
* **violated**: committed state diverged — the invariant is broken, and
  the row carries a minimized repro.

Everything is derived from one campaign seed via stable hashing, so a
report is exactly reproducible from ``(seed, scale, injections)`` and a
single violation from its printed repro command.

The layer drills exercise graceful degradation outside the predictor:
corrupt store objects must quarantine-and-recompute, truncated traces
must fail loudly (or salvage cleanly), and sabotaged harness workers must
not take the sweep down.
"""

from __future__ import annotations

import io
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.chaos.inject import (
    PREDICTOR_FAULTS,
    STORE_FAULTS,
    TRACE_FAULTS,
    corrupt_store_object,
    corrupt_trace_text,
    worker_saboteur,
)
from repro.chaos.oracle import first_violation, run_oracle, verified_commit
from repro.core.cloaking import CloakingEngine
from repro.core.config import CloakingConfig
from repro.util.hashing import stable_hash

#: default campaign seed (the paper under reproduction appeared in 1999)
DEFAULT_SEED = 1999


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign preset: how hard to shake each kernel."""

    name: str
    scale: float
    injections: int


CAMPAIGNS = {
    "smoke": CampaignSpec("smoke", scale=0.05, injections=3),
    "full": CampaignSpec("full", scale=0.25, injections=8),
}


@dataclass
class ChaosRow:
    """One kernel's campaign outcome (store/JSON serializable)."""

    abbrev: str
    category: str
    scale: float
    seed: int
    instructions: int
    loads: int
    speculated: int
    misspeculated: int
    injected: int
    armed: int
    detected: int
    recovered: int
    silent: int
    unarmed: int
    violations: List[str] = field(default_factory=list)

    @property
    def violated(self) -> int:
        return len(self.violations)


def kernel_seed(seed: int, abbrev: str) -> int:
    """The per-kernel site-selection seed."""
    return int(stable_hash((seed, abbrev, "sites"), length=8), 16)


def fault_seed(seed: int, abbrev: str, site: int, model: str) -> int:
    """The seed fixing one fault application's random choices."""
    return int(stable_hash((seed, abbrev, site, model), length=8), 16)


def plan_sites(seed: int, abbrev: str, instructions: int,
               injections: int) -> List[int]:
    """Seeded injection sites for one kernel (dynamic indices)."""
    if instructions < 2:
        return []
    rng = random.Random(kernel_seed(seed, abbrev))
    population = range(1, instructions)
    count = min(injections, len(population))
    return sorted(rng.sample(population, count))


def run_kernel_campaign(
    workload,
    scale: float,
    seed: int = DEFAULT_SEED,
    injections: int = 3,
    faults: Optional[Sequence[str]] = None,
    commit_rule: Callable = verified_commit,
) -> ChaosRow:
    """Shake one kernel: every fault model at every seeded site."""
    models = tuple(faults) if faults else PREDICTOR_FAULTS

    # Natural (uninjected) pass: the misspeculation baseline.  An injected
    # run is bit-identical up to its site, so a fault was *detected* by
    # verification exactly when its run's total wrong count exceeds this.
    engine = CloakingEngine(CloakingConfig.paper_accuracy())
    instructions = loads = 0
    for inst in workload.trace(scale):
        engine.observe(inst)
        instructions += 1
        if inst.is_load:
            loads += 1
    natural_wrong = engine.stats.wrong_raw + engine.stats.wrong_rar
    natural_spec = natural_wrong + engine.stats.correct_raw \
        + engine.stats.correct_rar

    row = ChaosRow(
        abbrev=workload.abbrev, category=workload.category, scale=scale,
        seed=seed, instructions=instructions, loads=loads,
        speculated=natural_spec, misspeculated=natural_wrong,
        injected=0, armed=0, detected=0, recovered=0, silent=0, unarmed=0)

    for site in plan_sites(seed, workload.abbrev, instructions, injections):
        for model in models:
            row.injected += 1
            outcome = run_oracle(
                workload, scale, [(site, model)],
                fault_seed(seed, workload.abbrev, site, model),
                commit_rule=commit_rule)
            # A divergence is a violation no matter how far the run got —
            # a broken mechanism can diverge before the fault even fires.
            violation = first_violation(workload, scale, seed, outcome)
            if violation is not None:
                row.violations.append(str(violation))
            applied = outcome.applied[0] if outcome.applied else None
            if applied is None or applied.target is None:
                row.unarmed += 1
                continue
            row.armed += 1
            if violation is not None:
                continue
            if outcome.misspeculated > natural_wrong:
                row.detected += 1
                row.recovered += 1
            else:
                row.silent += 1
    return row


# ---------------------------------------------------------------------------
# layer drills: graceful degradation outside the predictor


@dataclass
class DrillResult:
    """One layer drill: cases exercised and how many degraded gracefully."""

    layer: str
    cases: int
    graceful: int
    failed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


def trace_drill(seed: int = DEFAULT_SEED) -> DrillResult:
    """Corrupted trace streams must raise with a line number, or salvage."""
    from repro.trace.serialize import (
        TraceFormatError, read_trace, write_trace)
    from repro.workloads.suite import get_workload

    workload = get_workload("li")
    buffer = io.StringIO()
    total = write_trace(workload.trace(0.05, max_instructions=400), buffer,
                        name="chaos-drill")
    clean_text = buffer.getvalue()
    rng = random.Random(seed)
    result = DrillResult("trace", cases=0, graceful=0)

    for model in TRACE_FAULTS:
        corrupted = corrupt_trace_text(clean_text, model, rng)
        # Strict read: a clean parse or a located TraceFormatError —
        # anything else (a crash, an unlocated error) is a failure.
        result.cases += 1
        try:
            strict = sum(1 for _ in read_trace(io.StringIO(corrupted)))
        except TraceFormatError as exc:
            if "line " in str(exc):
                result.graceful += 1
            else:
                result.failed.append(f"{model}: unlocated error: {exc}")
        except Exception as exc:  # noqa: BLE001 - drill verdict, not flow
            result.failed.append(
                f"{model}: {type(exc).__name__}: {exc}")
        else:
            if strict <= total + 1:  # duplicate-record adds one
                result.graceful += 1
            else:
                result.failed.append(f"{model}: parsed {strict} records")
        # Salvage read: must never raise, never over-read.
        result.cases += 1
        try:
            salvaged = sum(
                1 for _ in read_trace(io.StringIO(corrupted), salvage=True))
        except Exception as exc:  # noqa: BLE001
            result.failed.append(
                f"{model} salvage: {type(exc).__name__}: {exc}")
        else:
            if salvaged <= total + 1:
                result.graceful += 1
            else:
                result.failed.append(
                    f"{model} salvage: yielded {salvaged} records")
    return result


def store_drill(seed: int = DEFAULT_SEED,
                root: Optional[Path] = None) -> DrillResult:
    """Corrupt store objects must quarantine, miss, and recompute."""
    from repro.harness.jobs import make_job
    from repro.harness.store import ResultStore

    rng = random.Random(seed)
    result = DrillResult("store", cases=0, graceful=0)
    rows = [ChaosRow(
        abbrev="li", category="int", scale=0.05, seed=seed,
        instructions=100, loads=10, speculated=5, misspeculated=0,
        injected=0, armed=0, detected=0, recovered=0, silent=0, unarmed=0)]

    with tempfile.TemporaryDirectory(prefix="chaos-store-") as tmp:
        store = ResultStore(root if root is not None else Path(tmp))
        for case, model in enumerate(STORE_FAULTS):
            # A distinct cell per fault model, so each quarantine is a
            # fresh file (re-quarantining one key overwrites in place).
            spec = make_job("analysis", "li", 0.05 + case * 0.01)
            key = store.key_for(spec)
            result.cases += 1
            store.put(key, spec, rows)
            path = store._object_path(key)
            detail = corrupt_store_object(path, model, rng)
            before = len(store.quarantined())
            try:
                got = store.get(key)
            except Exception as exc:  # noqa: BLE001 - drill verdict
                result.failed.append(
                    f"{model}: get raised {type(exc).__name__}: {exc}")
                continue
            quarantined = len(store.quarantined()) > before
            if got is not None:
                result.failed.append(
                    f"{model}: served corrupt rows ({detail})")
            elif not quarantined:
                result.failed.append(
                    f"{model}: miss without quarantine ({detail})")
            else:
                # Recompute must land cleanly after the quarantine.
                store.put(key, spec, rows)
                if store.get(key):
                    result.graceful += 1
                else:
                    result.failed.append(
                        f"{model}: store unusable after quarantine")
    return result


def harness_drill(seed: int = DEFAULT_SEED,
                  timeout: float = 2.0) -> DrillResult:
    """Sabotaged workers must fail their own cell and nothing else."""
    from repro.harness.api import run_artefacts
    from repro.harness.jobs import set_injection_hook
    from repro.harness.manifest import STATUS_COMPUTED, STATUS_FAILED

    sabotage = {"li": "crash", "com": "hang", "go": "slow-start"}
    expectations = {
        "li": ("worker died", STATUS_FAILED),
        "com": ("timed out", STATUS_FAILED),
        "go": ("", STATUS_COMPUTED),
    }
    previous = set_injection_hook(worker_saboteur(sabotage, delay=0.2))
    try:
        outcome = run_artefacts(
            [("analysis", 0.05)], list(sabotage), workers=2,
            timeout=timeout, retries=0, term_grace=0.3, retry_backoff=0.0,
            allow_failures=True)
    finally:
        set_injection_hook(previous)

    result = DrillResult("harness", cases=0, graceful=0)
    records = {record.workload: record
               for record in outcome.manifest.jobs}
    for abbrev, (needle, status) in expectations.items():
        result.cases += 1
        record = records.get(abbrev)
        if record is None:
            result.failed.append(f"{abbrev}: no record")
        elif record.status != status:
            result.failed.append(
                f"{abbrev}: status {record.status!r}, expected {status!r}"
                f" ({(record.error or '').strip().splitlines()[-1:]})")
        elif needle and needle not in (record.error or ""):
            result.failed.append(
                f"{abbrev}: error {record.error!r} lacks {needle!r}")
        else:
            result.graceful += 1
    return result


def run_drills(layers: Sequence[str],
               seed: int = DEFAULT_SEED) -> List[DrillResult]:
    """Run the selected layer drills in a stable order."""
    drills = {"trace": trace_drill, "store": store_drill,
              "harness": harness_drill}
    unknown = [layer for layer in layers if layer not in drills]
    if unknown:
        raise ValueError(f"unknown drill layers: {', '.join(unknown)}; "
                         f"known: {', '.join(drills)}")
    return [drills[layer](seed) for layer in drills if layer in layers]
