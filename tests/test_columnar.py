"""Unit tests for the repro.columnar subsystem.

Covers the record-batch round trip (bit-for-bit record identity), the
batch-boundary properties the ISSUE names (empty batch,
single-instruction batch, batch split mid-dependence), randomized
differential tests of every vectorized kernel against the
per-instruction reference classes, and the backend registry (lookup,
validation, the graceful numpy-missing error).
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

import repro
from repro.chaos.oracle import _compare
from repro.columnar.backend import (
    BackendUnavailableError,
    ReferenceBackend,
    backend_available,
    backend_names,
    get_backend,
)
from repro.columnar.batch import (
    TraceTable,
    clear_trace_cache,
    iter_record_batches,
    materialized_trace,
)
from repro.columnar.diff import diff_trace, diff_workload, verify_parity
from repro.columnar.kernels import (
    KIND_RAR,
    KIND_RAW,
    NO_PREV,
    ddt_dependences,
    group_links,
    mru_hits_within,
    stack_distances,
)
from repro.dependence.ddt import DDT, DDTConfig, DependenceKind
from repro.dependence.locality import _MRUList
from repro.isa.instructions import OpClass
from repro.trace.records import DynInst
from repro.workloads import get_workload


def _record_fields(inst):
    return tuple((name, getattr(inst, name), type(getattr(inst, name)))
                 for name in DynInst.__slots__)


def _synthetic_trace(seed=0, n=300, nwords=8, npcs=6):
    """A random mixed load/store/alu stream with known dependences."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        roll = rng.random()
        pc = 0x1000 + 4 * rng.randrange(npcs)
        if roll < 0.35:
            records.append(DynInst(i, pc, OpClass.LOAD, rd=rng.randrange(32),
                                   srcs=(1,), addr=4 * rng.randrange(nwords),
                                   value=rng.randrange(1 << 40)))
        elif roll < 0.55:
            records.append(DynInst(i, pc, OpClass.STORE, srcs=(1, 2),
                                   addr=4 * rng.randrange(nwords),
                                   value=rng.randrange(1 << 40)))
        elif roll < 0.7:
            records.append(DynInst(i, pc, OpClass.BRANCH, srcs=(3,),
                                   taken=rng.random() < 0.5,
                                   target_pc=0x2000))
        else:
            records.append(DynInst(i, pc, OpClass.IALU, rd=rng.randrange(32),
                                   srcs=(4, 5), value=rng.randrange(1 << 62)))
    return records


# -- record batches ------------------------------------------------------

class TestTraceTable:
    def test_round_trip_is_exact(self):
        records = list(get_workload("li").trace(scale=1.0,
                                                max_instructions=3000))
        table = TraceTable.from_dyninsts(records)
        rebuilt = list(table.to_dyninsts())
        assert len(rebuilt) == len(records)
        for want, got in zip(records, rebuilt):
            assert _compare(want, got) is None
            assert _record_fields(want) == _record_fields(got)

    def test_round_trip_synthetic_none_fields(self):
        records = _synthetic_trace(seed=5)
        rebuilt = list(TraceTable.from_dyninsts(records).to_dyninsts())
        for want, got in zip(records, rebuilt):
            assert _record_fields(want) == _record_fields(got)

    def test_empty_batch(self):
        table = TraceTable.empty()
        assert table.n == 0
        assert list(table.to_dyninsts()) == []
        assert table.counts() == (0, 0, 0)
        assert TraceTable.concat([]).n == 0
        assert TraceTable.concat([table, table]).n == 0

    def test_single_instruction_batch(self):
        records = _synthetic_trace(seed=1, n=1)
        table = TraceTable.from_dyninsts(records)
        assert table.n == 1
        assert _record_fields(next(table.to_dyninsts())) == \
            _record_fields(records[0])

    @pytest.mark.parametrize("batch_size", [1, 7, 299, 300, 1000])
    def test_concat_of_any_batching_equals_whole(self, batch_size):
        records = _synthetic_trace(seed=2)
        whole = TraceTable.from_dyninsts(records)
        batches = list(iter_record_batches(records, batch_size))
        assert all(b.n <= batch_size for b in batches)
        glued = TraceTable.concat(batches)
        for col in TraceTable.__slots__:
            got, want = getattr(glued, col), getattr(whole, col)
            assert got.dtype == want.dtype
            assert (got == want).all()

    def test_rechunk_round_trips(self):
        table = TraceTable.from_dyninsts(_synthetic_trace(seed=3))
        again = TraceTable.concat(list(table.batches(11)))
        assert [_record_fields(i) for i in again.to_dyninsts()] == \
            [_record_fields(i) for i in table.to_dyninsts()]

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            list(iter_record_batches([], 0))
        with pytest.raises(ValueError):
            list(TraceTable.empty().batches(-1))

    def test_batch_split_mid_dependence(self):
        """A store and its dependent load split across batches must still
        produce the dependence once the batches are concatenated."""
        records = [
            DynInst(0, 0x100, OpClass.STORE, srcs=(1, 2), addr=64, value=7),
            DynInst(1, 0x104, OpClass.IALU, rd=3, srcs=(4,), value=1),
            DynInst(2, 0x108, OpClass.LOAD, rd=5, srcs=(1,), addr=64,
                    value=7),
            DynInst(3, 0x10C, OpClass.LOAD, rd=6, srcs=(1,), addr=64,
                    value=7),
        ]
        for split in (1, 2, 3):
            table = TraceTable.concat([
                TraceTable.from_dyninsts(records[:split]),
                TraceTable.from_dyninsts(records[split:]),
            ])
            mem = np.nonzero(table.is_mem)[0]
            kind, source = ddt_dependences(
                table.word_addr()[mem], table.is_store[mem], [128])[128]
            # load #2 sees the store (RAW); load #3 still sees the store
            # (a hitting load does not re-record under the paper policy)
            assert kind.tolist() == [0, KIND_RAW, KIND_RAW]
            assert source.tolist() == [-1, 0, 0]

    def test_materialized_trace_caches(self):
        clear_trace_cache()
        workload = get_workload("li")
        first = materialized_trace(workload, 0.05, 500)
        assert materialized_trace(workload, 0.05, 500) is first
        clear_trace_cache()
        assert materialized_trace(workload, 0.05, 500) is not first


# -- kernels vs reference ------------------------------------------------

def _brute_stack_distances(keys):
    out = []
    last = {}
    for i, key in enumerate(keys):
        if key in last:
            out.append(len(set(keys[last[key] + 1:i])))
        else:
            out.append(None)
        last[key] = i
    return out


class TestKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_stack_distances_match_brute_force(self, seed):
        rng = random.Random(seed)
        keys = [rng.randrange(rng.choice([2, 5, 17]))
                for _ in range(rng.choice([0, 1, 2, 37, 256]))]
        arr = np.array(keys, dtype=np.int64).reshape(len(keys))
        prev, nxt, _, _ = group_links(arr)
        got = stack_distances(prev, nxt)
        for value, want in zip(got.tolist(), _brute_stack_distances(keys)):
            assert value == (NO_PREV if want is None else want)

    @pytest.mark.parametrize("seed", range(8))
    def test_ddt_dependences_match_reference(self, seed):
        rng = random.Random(1000 + seed)
        m = rng.choice([0, 1, 3, 40, 500])
        word = np.array([rng.randrange(rng.choice([1, 4, 24]))
                         for _ in range(m)], dtype=np.int64)
        is_store = np.array([rng.random() < 0.3 for _ in range(m)],
                            dtype=bool)
        sizes = [None, 1, 2, 4, 32]
        got = ddt_dependences(word, is_store, sizes)
        for size in sizes:
            ddt = DDT(DDTConfig(size=size))
            kind, source = got[size]
            for i in range(m):
                if is_store[i]:
                    ddt.observe_store(7000 + i, int(word[i]))
                    expect = None
                else:
                    expect = ddt.observe_load(7000 + i, int(word[i]))
                if expect is None:
                    assert kind[i] == 0 and source[i] == -1
                else:
                    want = (KIND_RAW if expect.kind == DependenceKind.RAW
                            else KIND_RAR)
                    assert kind[i] == want
                    assert 7000 + source[i] == expect.source_pc

    @pytest.mark.parametrize("seed", range(8))
    def test_mru_hits_match_reference(self, seed):
        rng = random.Random(2000 + seed)
        m = rng.choice([0, 1, 30, 400])
        max_n = rng.choice([1, 2, 4, 6])
        sink = np.array([10 + rng.randrange(3) for _ in range(m)],
                        dtype=np.int64)
        source = np.array([50 + rng.randrange(rng.choice([1, 2, 8]))
                           for _ in range(m)], dtype=np.int64)
        hits = [0] * max_n
        lists = {}
        for s, src in zip(sink.tolist(), source.tolist()):
            position = lists.setdefault(s, _MRUList(max_n)) \
                .find_and_promote(src)
            if position is not None:
                for k in range(position, max_n):
                    hits[k] += 1
        assert mru_hits_within(sink, source, max_n).tolist() == hits

    def test_mru_rejects_wide_pcs(self):
        with pytest.raises(ValueError):
            mru_hits_within(np.array([1 << 32], dtype=np.int64),
                            np.array([1], dtype=np.int64), 4)


# -- the backend registry and config plumbing ----------------------------

class TestBackendRegistry:
    def test_names_and_lookup(self):
        assert backend_names() == ("reference", "numpy")
        assert get_backend("reference").name == "reference"
        assert get_backend("numpy").name == "numpy"
        assert backend_available("reference")
        assert backend_available("numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("fortran")
        assert not backend_available("fortran")

    def test_missing_numpy_reports_gracefully(self, monkeypatch):
        # sys.modules[name] = None makes the import machinery raise
        # ImportError, simulating an environment without the extra
        monkeypatch.setitem(sys.modules, "repro.columnar.numpy_backend",
                            None)
        with pytest.raises(BackendUnavailableError,
                           match="reference"):
            get_backend("numpy")
        assert not backend_available("numpy")

    def test_numpy_loads_only_for_the_numpy_backend(self):
        """Starting the CLIs, the server or any summary artefact leaves
        NumPy unloaded; asking for the numpy backend loads it."""
        code = textwrap.dedent("""
            import importlib
            import sys

            import repro
            import repro.harness.__main__
            import repro.serve.__main__
            from repro.experiments import summary
            from repro.harness.registry import get_artefact

            for _, name, _ in summary.ARTEFACTS:
                importlib.import_module(get_artefact(name).module)
            assert "numpy" not in sys.modules, "numpy loaded at import"
            from repro.columnar.backend import get_backend

            get_backend("numpy")
            assert "numpy" in sys.modules
        """)
        src = Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert result.returncode == 0, result.stderr


# -- backend equivalence on real workloads -------------------------------

class TestBackendParity:
    def test_trace_stream_lockstep(self):
        workload = get_workload("go")
        assert diff_trace(workload, 0.05, get_backend("numpy")) is None

    def test_diff_workload_clean(self):
        report = diff_workload(get_workload("com"), 0.05,
                               get_backend("numpy"))
        assert report.ok, str(report)
        assert "parity" in str(report)

    def test_diff_workload_reports_divergence(self):
        """A deliberately wrong backend is caught, stage-attributed."""
        class Wrong(ReferenceBackend):
            name = "wrong"

            def trace_summary(self, workload, scale=1.0,
                              max_instructions=None):
                summary = super().trace_summary(workload, scale,
                                                max_instructions)
                return type(summary)(summary.instructions + 1,
                                     summary.loads, summary.stores)

        report = diff_workload(get_workload("go"), 0.02, Wrong(),
                               check_trace=False)
        assert not report.ok
        assert any(d.stage == "trace" for d in report.divergences)

    def test_verify_parity_subset(self):
        reports = verify_parity(["go", "swm"], scale=0.05,
                                check_trace=False)
        assert [r.workload for r in reports] == ["go", "swm"]
        assert all(r.ok for r in reports)

    def test_nondefault_ddt_config_falls_back(self):
        """Configs outside the vectorizable shape still agree (the
        per-instruction fallback path)."""
        workload = get_workload("go")
        for config in (DDTConfig(size=64, split=True),
                       DDTConfig(size=64, record_all_loads=True),
                       DDTConfig(size=64, record_loads=False)):
            want = get_backend("reference").dependence_pairs(
                workload, 0.02, config)
            got = get_backend("numpy").dependence_pairs(
                workload, 0.02, config)
            assert want == got
