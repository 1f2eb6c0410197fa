"""Streaming dependence classification of a trace (Figure 5 substrate).

:class:`DependenceProfiler` drives one or more DDTs over a committed
instruction stream and accumulates, per DDT configuration, the fraction of
loads whose dependence is visible — broken down into RAW and RAR.

:class:`LRUStackProfiler` computes the same profiles for any number of
sizes of the paper's default DDT (common table, fully associative,
recording loads, earliest-load policy, touch on hit) from one LRU stack
(Mattson et al., IBM Systems Journal, 1970): every access moves its word
to the top of the stack, so a size-C table holds exactly the stack's top
C words, and an access hits it iff fewer than C distinct words were
touched since that word's last access.  :func:`make_profiler` picks it
whenever every configuration has that shape; the per-size replay stays
the oracle it is tested against and the path for every other shape.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE


@dataclass
class DependenceProfile:
    """Visibility counts for one DDT configuration."""

    config: DDTConfig
    loads: int = 0
    raw_loads: int = 0
    rar_loads: int = 0

    @property
    def raw_fraction(self) -> float:
        return self.raw_loads / self.loads if self.loads else 0.0

    @property
    def rar_fraction(self) -> float:
        return self.rar_loads / self.loads if self.loads else 0.0

    @property
    def any_fraction(self) -> float:
        return (self.raw_loads + self.rar_loads) / self.loads if self.loads else 0.0


class DependenceProfiler:
    """Feeds a trace through one DDT per configuration, counting visibility."""

    def __init__(self, configs: Sequence[DDTConfig]) -> None:
        if not configs:
            raise ValueError("at least one DDTConfig is required")
        self._ddts: List[DDT] = [DDT(cfg) for cfg in configs]
        self.profiles: List[DependenceProfile] = [
            DependenceProfile(cfg) for cfg in configs
        ]

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        if inst.is_load:
            addr = inst.word_addr
            pc = inst.pc
            for ddt, profile in zip(self._ddts, self.profiles):
                dep = ddt.observe_load(pc, addr)
                profile.loads += 1
                if dep is not None:
                    if dep.kind == DependenceKind.RAW:
                        profile.raw_loads += 1
                    else:
                        profile.rar_loads += 1
        elif inst.is_store:
            addr = inst.word_addr
            pc = inst.pc
            for ddt in self._ddts:
                ddt.observe_store(pc, addr)

    def run(self, trace: Iterable[DynInst]) -> List[DependenceProfile]:
        """Consume a whole trace and return the profiles."""
        for inst in trace:
            self.observe(inst)
        return self.profiles


class LRUStackProfiler:
    """:class:`DependenceProfiler`'s profiles for default-shape DDTs of
    several sizes, from one LRU stack of word addresses.

    The stack is cut into nested bands at the sorted distinct sizes: band
    ``i`` holds stack positions ``[sizes[i-1], sizes[i])``, an
    ``OrderedDict`` from word to state, least recent first.  A word found
    in band ``i`` hits every table of size ``sizes[i]`` or more and misses
    the smaller ones; a word pushed past the largest size is forgotten, as
    that table evicts it.

    What last set a word's entry (a store, or a load that missed at that
    size; a hit leaves the entry as it was) differs per size only in its
    kind, and the kind is monotone in the size: a store sets every size,
    and a load sets exactly the sizes it misses, which are the smallest.
    So a word's state is one index, the smallest size whose entry a store
    set (``len(sizes)`` when none did), and a hitting load counts RAW at
    the sizes from there up and RAR below it.  Hits are tallied by (band,
    that index) and expanded into per-size counts when :attr:`profiles`
    is read.
    """

    def __init__(self, configs: Sequence[DDTConfig]) -> None:
        if not configs:
            raise ValueError("at least one DDTConfig is required")
        for config in configs:
            if not self.models(config):
                raise ValueError(f"{config.describe()} is not the default "
                                 "DDT shape; use DependenceProfiler")
        self._configs = list(configs)
        self._sizes = sorted({config.size for config in configs})
        self._caps = [size - smaller for smaller, size
                      in zip([0] + self._sizes, self._sizes)]
        self._bands: List[OrderedDict] = [OrderedDict() for _ in self._sizes]
        #: loads hitting from band b with RAW from size index m, at
        #: ``b * (len(sizes) + 1) + m``
        self._hits = [0] * (len(self._sizes) * (len(self._sizes) + 1))
        self._loads = 0

    @staticmethod
    def models(config: DDTConfig) -> bool:
        """Whether ``config`` is a finite DDT of the default shape."""
        return (config.size is not None
                and config == DDTConfig(size=config.size))

    def observe(self, inst: DynInst) -> None:
        """Account one committed instruction."""
        cls = inst.opclass
        if cls == _LOAD:
            is_load = True
        elif cls == _STORE:
            is_load = False
        else:
            return
        word = inst.word_addr
        bands = self._bands
        band = 0
        for entries in bands:
            state = entries.pop(word, None)
            if state is not None:
                break
            band += 1
        depth = len(bands)
        if not is_load:
            state = 0
        else:
            self._loads += 1
            if band == depth:
                state = depth
            else:
                if state < band:
                    state = band
                self._hits[band * (depth + 1) + state] += 1
        entries = bands[0]
        entries[word] = state
        if band:
            # Each band above the word's old one overflows by one word
            # into the next; off the last band a word is evicted.
            caps = self._caps
            index = 0
            while len(entries) > caps[index]:
                moved, moved_state = entries.popitem(last=False)
                index += 1
                if index == depth:
                    break
                entries = bands[index]
                entries[moved] = moved_state

    @property
    def profiles(self) -> List[DependenceProfile]:
        """One profile per configuration, in the order given."""
        depth = len(self._sizes)
        raw = [0] * depth
        rar = [0] * depth
        for band in range(depth):
            for raw_from in range(band, depth + 1):
                count = self._hits[band * (depth + 1) + raw_from]
                for index in range(band, depth):
                    if index < raw_from:
                        rar[index] += count
                    else:
                        raw[index] += count
        position = {size: index for index, size in enumerate(self._sizes)}
        return [DependenceProfile(config, self._loads,
                                  raw[position[config.size]],
                                  rar[position[config.size]])
                for config in self._configs]

    def run(self, trace: Iterable[DynInst]) -> List[DependenceProfile]:
        """Consume a whole trace and return the profiles."""
        for inst in trace:
            self.observe(inst)
        return self.profiles


def make_profiler(configs: Sequence[DDTConfig]
                  ) -> Union[LRUStackProfiler, DependenceProfiler]:
    """One LRU stack for default-shape configurations, else the replay."""
    if all(LRUStackProfiler.models(config) for config in configs):
        return LRUStackProfiler(configs)
    return DependenceProfiler(configs)
