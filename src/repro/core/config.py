"""Configuration of the cloaking/bypassing mechanism."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.dependence.ddt import DDTConfig
from repro.predictors.confidence import ConfidenceKind


class CloakingMode(enum.Enum):
    """Which dependence classes drive cloaking.

    ``RAW`` is the original Moshovos/Sohi mechanism (the paper's baseline);
    ``RAW_RAR`` adds this paper's RAR extensions; ``RAR`` isolates the
    extension (useful for analysis, not evaluated alone in the paper).
    """

    RAW = "RAW"
    RAR = "RAR"
    RAW_RAR = "RAW+RAR"

    @property
    def uses_raw(self) -> bool:
        return self in (CloakingMode.RAW, CloakingMode.RAW_RAR)

    @property
    def uses_rar(self) -> bool:
        return self in (CloakingMode.RAR, CloakingMode.RAW_RAR)


@dataclass(frozen=True)
class CloakingConfig:
    """Structure sizes and policies of a cloaking/bypassing mechanism.

    Defaults match the paper's timing configuration (Section 5.6.1):
    128-entry fully-associative DDT with word granularity, 8K 2-way DPNT,
    1K 2-way synonym file, adaptive 2-bit confidence, incremental
    (Chrysos-Emer) synonym merging.

    ``dpnt_entries``/``sf_entries`` of ``None`` model infinite tables (the
    accuracy study of Section 5.3 assumes an infinite DPNT).  Set-associative
    organizations apply only when a finite size is given; ``*_ways = 0``
    requests full associativity.
    """

    mode: CloakingMode = CloakingMode.RAW_RAR
    ddt: DDTConfig = field(default_factory=lambda: DDTConfig(size=128))
    dpnt_entries: Optional[int] = 8 * 1024
    dpnt_ways: int = 2
    sf_entries: Optional[int] = 1024
    sf_ways: int = 2
    confidence: ConfidenceKind = ConfidenceKind.TWO_BIT
    merge_policy: str = "incremental"  # "incremental" | "full" | "never"
    # The paper did "not provide explicit support for dependences between
    # instructions that access different data types" (Section 5.1) but
    # notes the original proposal discusses it.  When True, a consumer
    # whose access size differs from the SF value's producer size does not
    # speculate (avoiding guaranteed-wrong cross-size communication).
    check_size_mismatch: bool = False

    def __post_init__(self) -> None:
        if self.merge_policy not in ("incremental", "full", "never"):
            raise ValueError(f"unknown merge policy {self.merge_policy!r}")
        if self.mode == CloakingMode.RAW and self.ddt.record_loads:
            # The original RAW-only mechanism does not record loads in the
            # DDT; constructing it with a load-recording DDT silently changes
            # store visibility (the Section 5.6.2 anomaly), so require the
            # caller to be explicit.
            object.__setattr__(
                self, "ddt",
                DDTConfig(
                    size=self.ddt.size,
                    split=self.ddt.split,
                    record_loads=False,
                    record_all_loads=self.ddt.record_all_loads,
                    touch_on_hit=self.ddt.touch_on_hit,
                ),
            )

    @classmethod
    def paper_accuracy(cls, mode: CloakingMode = CloakingMode.RAW_RAR,
                       confidence: ConfidenceKind = ConfidenceKind.TWO_BIT,
                       ddt_size: Optional[int] = 128) -> "CloakingConfig":
        """The Section 5.3 accuracy study: infinite DPNT and SF."""
        return cls(
            mode=mode,
            ddt=DDTConfig(size=ddt_size),
            dpnt_entries=None,
            sf_entries=None,
            confidence=confidence,
        )

    @classmethod
    def paper_overlap(cls, mode: CloakingMode = CloakingMode.RAW_RAR) -> "CloakingConfig":
        """The Section 5.5 value-prediction overlap study: 16K DPNT, 2K SF."""
        return cls(
            mode=mode,
            ddt=DDTConfig(size=128),
            dpnt_entries=16 * 1024,
            dpnt_ways=0,
            sf_entries=2 * 1024,
            sf_ways=0,
        )

    @classmethod
    def paper_timing(cls, mode: CloakingMode = CloakingMode.RAW_RAR,
                     split_ddt: bool = False) -> "CloakingConfig":
        """The Section 5.6.1 timing configuration."""
        return cls(
            mode=mode,
            ddt=DDTConfig(size=128, split=split_ddt),
            dpnt_entries=8 * 1024,
            dpnt_ways=2,
            sf_entries=1024,
            sf_ways=2,
        )

    # -- index semantics (shared with the static config lint) -------------

    @property
    def dpnt_sets(self) -> Optional[int]:
        """Number of DPNT sets, or None when the DPNT is infinite or
        fully associative (no conflict structure to reason about)."""
        if self.dpnt_entries is None or self.dpnt_ways <= 0:
            return None
        return self.dpnt_entries // self.dpnt_ways

    def dpnt_index(self, pc: int) -> Optional[int]:
        """The DPNT set a memory PC maps to.

        Mirrors the hash-and-mask indexing of the backing
        :class:`~repro.util.lru.SetAssociativeTable`, so static conflict
        reasoning (``W_DPNT_CONFLICT``) matches the modelled hardware.
        """
        sets = self.dpnt_sets
        if sets is None:
            return None
        return hash(pc) & (sets - 1)
