"""The one-pass LRU stack profiler against the per-size DDT replay.

``DependenceProfiler`` replays one DDT per size and is the oracle;
``LRUStackProfiler`` derives every default-shape size from one stack and
must produce equal profiles, in the order the sizes were given.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence.ddt import DDTConfig
from repro.dependence.detector import (
    DependenceProfile,
    DependenceProfiler,
    LRUStackProfiler,
    make_profiler,
)
from repro.experiments import fig5
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst
from repro.workloads import all_workloads, get_workload


def _stream(accesses):
    """DynInsts for (is_store, word) pairs, an ALU op between each."""
    out = []
    for is_store, word in accesses:
        pc = 0x1000 + 4 * len(out)
        if is_store:
            out.append(DynInst(len(out), pc, OpClass.STORE, srcs=(9, 8),
                               addr=4 * word, value=word))
        else:
            out.append(DynInst(len(out), pc, OpClass.LOAD, rd=1, srcs=(9,),
                               addr=4 * word, value=word))
        out.append(DynInst(len(out), pc + 4, OpClass.IALU, rd=2, srcs=(1,)))
    return out


def _both(sizes, trace):
    configs = [DDTConfig(size=size) for size in sizes]
    return (LRUStackProfiler(configs).run(trace),
            DependenceProfiler(configs).run(trace))


@pytest.mark.parametrize("abbrev", [w.abbrev for w in all_workloads()])
def test_matches_the_replay_on_every_kernel(abbrev):
    trace = list(get_workload(abbrev).trace(scale=0.1))
    stack, replay = _both(fig5.DDT_SIZES, trace)
    assert stack == replay
    assert any(profile.raw_loads + profile.rar_loads for profile in stack)


@given(accesses=st.lists(st.tuples(st.booleans(), st.integers(0, 5)),
                         max_size=200),
       sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_matches_the_replay_on_random_streams(accesses, sizes):
    """Tiny, unsorted and repeated sizes over a few words; rows come
    back in ``sizes`` order."""
    stack, replay = _both(sizes, _stream(accesses))
    assert stack == replay
    assert [profile.config.size for profile in stack] == sizes


def test_a_load_can_miss_a_small_size_and_hit_a_larger_one():
    # ST A; LD B; LD A; LD A.  The first LD A misses the 1-entry table (B
    # evicted A) and records itself there; the 2-entry table still holds
    # the store.  So the second LD A is RAR at size 1 and RAW at size 2.
    trace = _stream([(True, 1), (False, 2), (False, 1), (False, 1)])
    stack, replay = _both((2, 1), trace)
    assert stack == replay == [
        DependenceProfile(DDTConfig(size=2), loads=3, raw_loads=2),
        DependenceProfile(DDTConfig(size=1), loads=3, raw_loads=0,
                          rar_loads=1),
    ]


@pytest.mark.parametrize("config", [
    DDTConfig(size=128, split=True),
    DDTConfig(size=128, ways=2),
    DDTConfig(size=128, record_all_loads=True),
    DDTConfig(size=128, touch_on_hit=False),
    DDTConfig(size=128, record_loads=False),
    DDTConfig(size=None),
], ids=["split", "ways", "record_all_loads", "no_touch", "raw_only",
        "infinite"])
def test_other_shapes_take_the_replay(config):
    assert not LRUStackProfiler.models(config)
    assert isinstance(make_profiler([config]), DependenceProfiler)
    # one such size sends the whole sweep to the replay
    assert isinstance(make_profiler([DDTConfig(size=32), config]),
                      DependenceProfiler)
    with pytest.raises(ValueError):
        LRUStackProfiler([config])


def test_default_shapes_take_the_stack():
    assert isinstance(make_profiler([DDTConfig(size=s) for s in (64, 32)]),
                      LRUStackProfiler)
    with pytest.raises(ValueError):
        make_profiler([])

