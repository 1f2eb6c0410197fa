"""Deterministic, seeded fault models for every layer of the system.

All injectors draw from a caller-supplied :class:`random.Random`, so a
campaign seed fully determines which structure is hit, which bit flips,
and which record is garbled — the property that makes a violation's
``(seed, site, model)`` triple a complete repro.

Four fault families:

* **predictor** — corrupt live cloaking state on a running
  :class:`~repro.core.cloaking.CloakingEngine` (the differential oracle's
  target layer);
* **trace** — perturb a serialized trace stream (drop / duplicate /
  truncate / garble records);
* **store** — damage a result-store object file (truncation, bit rot,
  schema drift);
* **worker** — sabotage harness workers (crash / hang / slow-start) via
  the :func:`repro.harness.jobs.set_injection_hook` seam.
"""

from __future__ import annotations

import os
import random
import signal
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.core.cloaking import CloakingEngine

#: predictor-layer fault models (the differential oracle's injection set)
PREDICTOR_FAULTS = (
    "bitflip-sf",        # flip one bit of a full Synonym File value
    "stale-sf",          # overwrite an SF entry with a stale sentinel value
    "synonym-alias",     # alias one DPNT entry onto another group's synonym
    "confidence-force",  # saturate a consumer confidence automaton
)

#: trace-layer fault models
TRACE_FAULTS = (
    "truncate-mid-record",  # cut a record line in half, drop the rest
    "wrong-field-count",    # append a stray token to a record
    "garble-value",         # replace a value token with junk
    "drop-record",          # delete one record line
    "duplicate-record",     # repeat one record line
)

#: store-layer fault models
STORE_FAULTS = (
    "truncate",      # keep only the first half of the object file
    "bitrot",        # flip a bit in the object's first byte
    "schema-drift",  # rename the row_type key (an incompatible writer)
)

#: worker-layer fault modes accepted by :func:`worker_saboteur`
WORKER_FAULTS = ("crash", "hang", "slow-start")

#: the value a stale-sf fault plants (recognizably synthetic, and very
#: unlikely to match any kernel's data — so the fault is observable)
STALE_SENTINEL = 0x5EEDFACE


# ---------------------------------------------------------------------------
# predictor-layer injection


@dataclass
class AppliedFault:
    """One fault application, as it actually landed.

    ``target`` describes the corrupted structure (``None`` when no
    eligible state existed yet — the fault was a no-op); ``wrong_before``
    snapshots the engine's misspeculation count at the moment of
    injection, for detection attribution.
    """

    site: int
    model: str
    target: Optional[str]
    wrong_before: int = 0


def _wrong_count(engine: CloakingEngine) -> int:
    return engine.stats.wrong_raw + engine.stats.wrong_rar


def _flip_float_bit(value: float, bit: int) -> float:
    bits = struct.unpack("<Q", struct.pack("<d", value))[0]
    return struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))[0]


def _apply_bitflip_sf(engine: CloakingEngine, rng: random.Random
                      ) -> Optional[str]:
    full = [(syn, e) for syn, e in engine.sf.entries() if e.full]
    if not full:
        return None
    synonym, entry = rng.choice(full)
    if isinstance(entry.value, float):
        bit = rng.randrange(64)
        entry.value = _flip_float_bit(entry.value, bit)
        return f"sf[{synonym}] float bit {bit}"
    if isinstance(entry.value, int):
        bit = rng.randrange(32)
        entry.value ^= 1 << bit
        return f"sf[{synonym}] int bit {bit}"
    return None


def _apply_stale_sf(engine: CloakingEngine, rng: random.Random
                    ) -> Optional[str]:
    entries = list(engine.sf.entries())
    if entries:
        synonym, entry = rng.choice(entries)
        entry.fill(STALE_SENTINEL, from_store=entry.from_store,
                   size=entry.size)
        return f"sf[{synonym}] <- stale {STALE_SENTINEL:#x}"
    named = list(engine.dpnt.entries())
    if not named:
        return None
    _, dpnt_entry = rng.choice(named)
    engine.sf.deposit(dpnt_entry.synonym, STALE_SENTINEL, from_store=False)
    return f"sf[{dpnt_entry.synonym}] <- stale {STALE_SENTINEL:#x} (fresh)"


def _apply_synonym_alias(engine: CloakingEngine, rng: random.Random
                         ) -> Optional[str]:
    entries = list(engine.dpnt.entries())
    groups = {e.synonym for _, e in entries}
    if len(groups) < 2:
        return None
    (pc_a, a), (pc_b, b) = rng.sample(entries, 2)
    if a.synonym == b.synonym:
        others = [(pc, e) for pc, e in entries if e.synonym != a.synonym]
        pc_b, b = rng.choice(others)
    old = b.synonym
    b.synonym = a.synonym
    return f"dpnt[{pc_b:#x}] synonym {old} -> {a.synonym} (alias {pc_a:#x})"


def _apply_confidence_force(engine: CloakingEngine, rng: random.Random
                            ) -> Optional[str]:
    entries = list(engine.dpnt.entries())
    if not entries:
        return None
    pc, entry = rng.choice(entries)
    confidence = engine.dpnt.mark_consumer(entry)
    # Deliberately reach into the automaton: chaos corrupts internal
    # state the public interface would never produce on its own.
    confidence.value = confidence._MAX
    return f"dpnt[{pc:#x}] consumer confidence forced to {confidence.value}"


_PREDICTOR_APPLIERS = {
    "bitflip-sf": _apply_bitflip_sf,
    "stale-sf": _apply_stale_sf,
    "synonym-alias": _apply_synonym_alias,
    "confidence-force": _apply_confidence_force,
}


class PredictorInjector:
    """Applies planned faults to a live engine at dynamic-instruction sites.

    ``plans`` is a sequence of ``(site, model)`` pairs; each fault fires
    immediately before the instruction with that dynamic index is
    observed.  ``applied`` records what actually happened.
    """

    def __init__(self, plans: Sequence[Tuple[int, str]], seed: int) -> None:
        for _, model in plans:
            if model not in _PREDICTOR_APPLIERS:
                known = ", ".join(PREDICTOR_FAULTS)
                raise ValueError(
                    f"unknown predictor fault {model!r}; known: {known}")
        self._plans = sorted(plans)
        self._rng = random.Random(seed)
        self._position = 0
        self.applied: List[AppliedFault] = []

    def maybe_inject(self, index: int, engine: CloakingEngine) -> None:
        """Fire every plan whose site has been reached."""
        while (self._position < len(self._plans)
               and self._plans[self._position][0] <= index):
            site, model = self._plans[self._position]
            self._position += 1
            wrong_before = _wrong_count(engine)
            target = _PREDICTOR_APPLIERS[model](engine, self._rng)
            self.applied.append(
                AppliedFault(site, model, target, wrong_before))


def apply_predictor_fault(engine: CloakingEngine, model: str,
                          seed: int) -> AppliedFault:
    """Apply one predictor fault to a live engine right now.

    The one-shot form of :class:`PredictorInjector` for callers that do
    not walk a trace by index — the serving layer (:mod:`repro.serve`)
    uses it to corrupt a session's predictor shard mid-stream during
    chaos soak drills.  Returns the :class:`AppliedFault` (``target`` is
    ``None`` when no eligible state existed yet).
    """
    injector = PredictorInjector([(0, model)], seed)
    injector.maybe_inject(0, engine)
    return injector.applied[0]


# ---------------------------------------------------------------------------
# trace-layer injection


def _record_line_indices(lines: Sequence[str]) -> List[int]:
    return [i for i, line in enumerate(lines) if line.startswith("R ")]


def corrupt_trace_text(text: str, model: str, rng: random.Random) -> str:
    """Apply one trace fault model to serialized trace text."""
    lines = text.splitlines()
    records = _record_line_indices(lines)
    if not records:
        raise ValueError("trace has no record lines to corrupt")
    victim = rng.choice(records)
    if model == "truncate-mid-record":
        tokens = lines[victim].split()
        lines[victim] = " ".join(tokens[:max(1, len(tokens) // 2)])
        lines = lines[:victim + 1]
    elif model == "wrong-field-count":
        lines[victim] += " 999"
    elif model == "garble-value":
        tokens = lines[victim].split()
        tokens[-1] = "q77"
        lines[victim] = " ".join(tokens)
    elif model == "drop-record":
        del lines[victim]
    elif model == "duplicate-record":
        lines.insert(victim, lines[victim])
    else:
        known = ", ".join(TRACE_FAULTS)
        raise ValueError(f"unknown trace fault {model!r}; known: {known}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# store-layer injection


def corrupt_store_object(path: Path, model: str, rng: random.Random) -> str:
    """Damage one result-store object file in place; returns a detail."""
    data = path.read_bytes()
    if model == "truncate":
        path.write_bytes(data[:len(data) // 2])
        return f"truncated {len(data)} -> {len(data) // 2} bytes"
    if model == "bitrot":
        # Flip a bit of the opening brace so the damage is structural:
        # JSON can no longer parse, which is what the quarantine path
        # must catch (a flipped digit would be silent corruption — that
        # failure mode needs content checksums, out of scope here).
        bit = rng.randrange(8)
        path.write_bytes(bytes([data[0] ^ (1 << bit)]) + data[1:])
        return f"flipped bit {bit} of byte 0"
    if model == "schema-drift":
        text = data.decode("utf-8").replace('"row_type"', '"rowType"', 1)
        path.write_text(text, encoding="utf-8")
        return "renamed row_type key"
    known = ", ".join(STORE_FAULTS)
    raise ValueError(f"unknown store fault {model!r}; known: {known}")


# ---------------------------------------------------------------------------
# worker-layer injection


def worker_saboteur(faults: Mapping[str, str],
                    delay: float = 0.3) -> Callable:
    """An ``execute_job`` hook mapping workload abbreviations to sabotage.

    ``crash`` hard-exits the worker, ``hang`` ignores SIGTERM and sleeps
    (provoking the queue worker's SIGKILL escalation), ``slow-start`` sleeps
    ``delay`` seconds then proceeds normally.  Install with
    :func:`repro.harness.jobs.set_injection_hook`; the forked per-claim
    children of queue workers inherit it.
    """
    for mode in faults.values():
        if mode not in WORKER_FAULTS:
            known = ", ".join(WORKER_FAULTS)
            raise ValueError(f"unknown worker fault {mode!r}; known: {known}")

    def hook(spec) -> None:
        mode = faults.get(spec.workload)
        if mode == "crash":
            os._exit(23)
        elif mode == "hang":
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(3600)
        elif mode == "slow-start":
            time.sleep(delay)

    return hook
