"""Property-based tests (hypothesis) for core data structures and invariants."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloakingConfig, CloakingEngine, CloakingMode, LoadOutcome
from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst
from repro.util.lru import LRUTable

# ---------------------------------------------------------------------------
# LRU table vs a reference model
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 15)),
    max_size=200,
)


@given(ops=_ops, capacity=st.integers(1, 8))
def test_lru_matches_reference_model(ops, capacity):
    """The LRUTable agrees with an explicit OrderedDict reference model."""
    table = LRUTable(capacity)
    model: "OrderedDict[int, int]" = OrderedDict()
    for op, key in ops:
        if op == "put":
            table.put(key, key * 10)
            if key in model:
                model.move_to_end(key)
            elif len(model) >= capacity:
                model.popitem(last=False)
            model[key] = key * 10
        else:
            got = table.get(key)
            expected = model.get(key)
            if key in model:
                model.move_to_end(key)
            assert got == expected
    assert dict(table.items()) == dict(model)
    assert list(table) == list(model)


@given(ops=_ops, capacity=st.integers(1, 8))
def test_lru_never_exceeds_capacity(ops, capacity):
    table = LRUTable(capacity)
    for op, key in ops:
        if op == "put":
            table.put(key, key)
        assert len(table) <= capacity


# ---------------------------------------------------------------------------
# Random memory access streams: DDT and cloaking invariants
# ---------------------------------------------------------------------------

_access = st.tuples(
    st.booleans(),          # is_store
    st.integers(0, 7),      # static instruction id
    st.integers(0, 7),      # word slot
    st.integers(0, 3),      # value
)


def _trace_from(accesses):
    out = []
    for index, (is_store, static_id, slot, value) in enumerate(accesses):
        pc = 0x1000 + 4 * static_id + (0x100 if is_store else 0)
        addr = 0x4000 + 4 * slot
        cls = OpClass.STORE if is_store else OpClass.LOAD
        if is_store:
            out.append(DynInst(index, pc, cls, srcs=(9, 8), addr=addr,
                               value=value))
        else:
            out.append(DynInst(index, pc, cls, rd=1, srcs=(9,), addr=addr,
                               value=value))
    return out


@given(accesses=st.lists(_access, max_size=300))
@settings(max_examples=60)
def test_ddt_dependences_match_oracle(accesses):
    """Against an infinite DDT, every detected dependence must agree with a
    straightforward oracle: RAW source = last store to the address with no
    later access issues; RAR source = earliest load since the last store.
    """
    trace = _trace_from(accesses)
    ddt = DDT(DDTConfig(size=None))
    last_store_pc = {}
    first_load_since_store = {}
    for inst in trace:
        word = inst.word_addr
        if inst.is_store:
            ddt.observe_store(inst.pc, word)
            last_store_pc[word] = inst.pc
            first_load_since_store.pop(word, None)
        else:
            dep = ddt.observe_load(inst.pc, word)
            if word in first_load_since_store:
                assert dep is not None
                assert dep.kind == DependenceKind.RAR
                assert dep.source_pc == first_load_since_store[word]
            elif word in last_store_pc:
                assert dep is not None
                assert dep.kind == DependenceKind.RAW
                assert dep.source_pc == last_store_pc[word]
            else:
                assert dep is None
            if word not in last_store_pc and word not in first_load_since_store:
                first_load_since_store[word] = inst.pc
            elif word in last_store_pc:
                pass  # store retains the entry; loads are not recorded
            # once a first load is recorded it stays the source


@given(accesses=st.lists(_access, max_size=300))
@settings(max_examples=60)
def test_cloaking_correct_outcomes_really_match_memory(accesses):
    """Whenever the engine reports a CORRECT outcome, the speculative value
    it would have forwarded equals the load's actual value — by
    construction of the verification step; this asserts the bookkeeping
    never drifts.  Statistics must remain consistent throughout.
    """
    trace = _trace_from(accesses)
    engine = CloakingEngine(CloakingConfig(
        mode=CloakingMode.RAW_RAR, ddt=DDTConfig(size=None),
        dpnt_entries=None, sf_entries=None))
    memory = {}
    loads = covered = wrong = 0
    for inst in trace:
        if inst.is_store:
            memory[inst.word_addr] = inst.value
            engine.observe(inst)
            continue
        # make the trace self-consistent: the load reads current memory
        inst.value = memory.get(inst.word_addr, 0)
        outcome = engine.observe(inst)
        loads += 1
        if outcome.correct:
            covered += 1
        elif outcome.speculated:
            wrong += 1
    stats = engine.stats
    assert stats.loads == loads
    assert stats.correct_raw + stats.correct_rar == covered
    assert stats.wrong_raw + stats.wrong_rar == wrong
    assert stats.coverage + stats.misspeculation_rate <= 1.0 + 1e-12


@given(accesses=st.lists(_access, max_size=200))
@settings(max_examples=40)
def test_finite_ddt_detects_subset_of_infinite(accesses):
    """A finite DDT's detected dependence count never exceeds an infinite
    one's, for both kinds."""
    trace = _trace_from(accesses)
    finite = DDT(DDTConfig(size=4))
    infinite = DDT(DDTConfig(size=None))
    for inst in trace:
        if inst.is_store:
            finite.observe_store(inst.pc, inst.word_addr)
            infinite.observe_store(inst.pc, inst.word_addr)
        else:
            finite.observe_load(inst.pc, inst.word_addr)
            infinite.observe_load(inst.pc, inst.word_addr)
    assert finite.raw_detected + finite.rar_detected \
        <= infinite.raw_detected + infinite.rar_detected


# ---------------------------------------------------------------------------
# Pipeline timing sanity over random (structurally valid) streams
# ---------------------------------------------------------------------------

@given(accesses=st.lists(_access, min_size=1, max_size=150))
@settings(max_examples=30, deadline=None)
def test_pipeline_cycles_bounded_and_monotone(accesses):
    """Cycles are at least instructions/width and the cloaked machine never
    reports a different instruction count than the base."""
    from repro.pipeline import CloakedProcessor, Processor

    trace = _trace_from(accesses)
    base = Processor().run(iter(trace))
    cloaked = CloakedProcessor().run(iter(trace))
    assert base.cycles >= len(trace) // 8
    assert cloaked.timing_instructions == base.timing_instructions
    assert base.ipc <= 8.0 + 1e-9
