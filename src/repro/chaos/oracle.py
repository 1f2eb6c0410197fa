"""The differential correctness oracle.

The paper's invariant (Section 3.4): cloaking/bypassing is speculative —
every speculatively communicated value is verified against the value the
memory access actually returns, so *no predictor corruption may change
committed architectural state*.  The repo's accuracy and timing models
take this for granted (committed values always come from the functional
interpreter); this module checks it instead.

Two interpreters run in lockstep over the same program:

* the **golden** run executes purely functionally;
* the **speculative** run feeds every committed instruction through a
  live :class:`~repro.core.cloaking.CloakingEngine` (into which seeded
  faults are injected) and lets a *commit rule* decide which value each
  load actually commits.  The committed value is patched back into the
  interpreter's register file, so a wrong value genuinely propagates —
  different operands, different branches, different addresses.

The default commit rule, :func:`verified_commit`, models the paper's
verify-at-commit mechanism: a speculative value is committed only when the
engine verified it equal to the memory value, i.e. it always equals the
true value.  Under it, *any* divergence — in the committed instruction
stream or in final registers/memory — is an invariant violation, reported
with a minimized repro (seed + injection site + first divergent
instruction).  Tests substitute broken commit rules (e.g. "trust the
predictor, skip verification") to prove the oracle catches real
corruption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.cloaking import CloakingEngine, ObservedAccess
from repro.core.config import CloakingConfig
from repro.isa.interpreter import Interpreter
from repro.isa.registers import ZERO_REG
from repro.chaos.inject import PredictorInjector
from repro.trace.records import DynInst

#: a commit rule: (engine's view of the load, true memory value) -> the
#: value that reaches architectural state
CommitRule = Callable[[Optional[ObservedAccess], object], object]


def verified_commit(observed: Optional[ObservedAccess],
                    true_value: object) -> object:
    """The paper's mechanism: speculation survives only if verified correct.

    The speculative value is committed exactly when the engine compared it
    against the memory value and found them equal — so the committed value
    always equals ``true_value``, whatever state the predictor is in.
    """
    if (observed is not None and observed.outcome.speculated
            and observed.outcome.correct):
        return observed.spec_value
    return true_value


@dataclass
class Divergence:
    """The first point where the speculative run left the golden run."""

    index: int
    field: str
    expected: object
    actual: object
    pc: Optional[int] = None

    def __str__(self) -> str:
        where = f"#{self.index}"
        if self.pc is not None:
            where += f" pc={self.pc:#x}"
        return (f"{where} {self.field}: expected {self.expected!r}, "
                f"got {self.actual!r}")


@dataclass
class Violation:
    """An invariant violation with everything needed to reproduce it."""

    workload: str
    scale: float
    seed: int
    model: str
    site: int
    target: Optional[str]
    divergence: Divergence

    def repro_command(self) -> str:
        return (f"python -m repro.chaos --workloads {self.workload}"
                f" --scale {self.scale} --seed {self.seed}"
                f" --site {self.site} --fault {self.model}")

    def __str__(self) -> str:
        return (f"{self.workload}: {self.model}@{self.site}"
                f" ({self.target or 'no-op'}) diverged at {self.divergence}"
                f"\n  repro: {self.repro_command()}")


@dataclass
class OracleOutcome:
    """One oracle run: a fault plan executed under a commit rule."""

    workload: str
    instructions: int = 0
    loads: int = 0
    speculated: int = 0
    misspeculated: int = 0
    applied: list = field(default_factory=list)
    divergence: Optional[Divergence] = None

    @property
    def violated(self) -> bool:
        return self.divergence is not None


def _compare(golden: Optional[DynInst], actual: Optional[DynInst]
             ) -> Optional[Divergence]:
    """First field-level difference between two committed records."""
    if golden is None:
        return Divergence(actual.index, "stream-length", "halt",
                          f"extra {actual.opclass.name}", actual.pc)
    if actual is None:
        return Divergence(golden.index, "stream-length",
                          f"{golden.opclass.name}", "halt", golden.pc)
    if actual.pc != golden.pc:
        return Divergence(golden.index, "pc", golden.pc, actual.pc,
                          golden.pc)
    if actual.opclass != golden.opclass:
        return Divergence(golden.index, "opclass", golden.opclass.name,
                          actual.opclass.name, golden.pc)
    if golden.is_mem:
        for name in ("addr", "size", "value"):
            expected, got = getattr(golden, name), getattr(actual, name)
            if got != expected:
                return Divergence(golden.index, name, expected, got,
                                  golden.pc)
    elif golden.is_control:
        for name in ("taken", "target_pc"):
            expected, got = getattr(golden, name), getattr(actual, name)
            if got != expected:
                return Divergence(golden.index, name, expected, got,
                                  golden.pc)
    return None


def _final_state_divergence(golden: Interpreter, speculative: Interpreter
                            ) -> Optional[Divergence]:
    """Compare final architectural state (registers + memory)."""
    for reg, expected in enumerate(golden.registers):
        if reg == ZERO_REG:
            continue
        got = speculative.registers[reg]
        if got != expected:
            return Divergence(speculative.executed, f"final r{reg}",
                              expected, got)
    words = set(golden.memory) | set(speculative.memory)
    for word in sorted(words):
        expected = golden.memory.get(word, 0)
        got = speculative.memory.get(word, 0)
        if got != expected:
            return Divergence(speculative.executed,
                              f"final mem[{word * 4:#x}]", expected, got)
    return None


def run_oracle(
    workload,
    scale: float,
    plans: Sequence[Tuple[int, str]],
    fault_seed: int,
    *,
    engine_config: Optional[CloakingConfig] = None,
    commit_rule: CommitRule = verified_commit,
    max_instructions: Optional[int] = None,
    pre_observe: Optional[Callable[[DynInst, CloakingEngine], None]] = None,
) -> OracleOutcome:
    """Execute one fault plan under the differential oracle.

    ``plans`` is a sequence of ``(site, model)`` predictor faults (usually
    a single fault, which makes the repro minimal by construction);
    ``fault_seed`` fixes every random choice the injectors make.
    ``pre_observe`` runs before every instruction reaches the engine — an
    adversarial tap for tests that want to corrupt *continuously* (e.g.
    poison every SF entry so every used prediction is wrong) rather than
    at seeded sites.  Returns an :class:`OracleOutcome` whose
    ``divergence`` is ``None`` exactly when the speculative run committed
    the same instruction stream and final state as the golden run.
    """
    program = workload.program(scale)
    golden = Interpreter(program, max_instructions=max_instructions)
    speculative = Interpreter(program, max_instructions=max_instructions)
    engine = CloakingEngine(engine_config if engine_config is not None
                            else CloakingConfig.paper_accuracy())
    injector = PredictorInjector(plans, fault_seed)

    outcome = OracleOutcome(workload.abbrev)

    def speculative_stream():
        for inst in speculative.run():
            injector.maybe_inject(inst.index, engine)
            if pre_observe is not None:
                pre_observe(inst, engine)
            observed = engine.observe_timing(inst)
            if inst.is_load:
                outcome.loads += 1
                if observed is not None and observed.outcome.speculated:
                    outcome.speculated += 1
                    if not observed.outcome.correct:
                        outcome.misspeculated += 1
                committed = commit_rule(observed, inst.value)
                if committed != inst.value:
                    # The wrong value reaches architectural state: patch
                    # the live register file so it propagates, and the
                    # committed record so the stream diff sees it.
                    if inst.rd is not None and inst.rd != ZERO_REG:
                        speculative.registers[inst.rd] = committed
                    inst.value = committed
            yield inst

    for golden_inst, actual_inst in itertools.zip_longest(
            golden.run(), speculative_stream()):
        outcome.instructions += 1
        divergence = _compare(golden_inst, actual_inst)
        if divergence is not None:
            outcome.divergence = divergence
            break

    outcome.applied = list(injector.applied)
    if outcome.divergence is None:
        outcome.divergence = _final_state_divergence(golden, speculative)
    return outcome


def first_violation(
    workload, scale: float, seed: int, outcome: OracleOutcome
) -> Optional[Violation]:
    """Package an oracle outcome as a :class:`Violation` (or ``None``)."""
    if outcome.divergence is None:
        return None
    applied = outcome.applied[0] if outcome.applied else None
    return Violation(
        workload=workload.abbrev,
        scale=scale,
        seed=seed,
        model=applied.model if applied else "none",
        site=applied.site if applied else -1,
        target=applied.target if applied else None,
        divergence=outcome.divergence,
    )
