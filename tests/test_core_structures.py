"""Unit tests for synonyms, DPNT and Synonym File."""

import pytest

from repro.core.dpnt import DPNT
from repro.core.synonym_file import SynonymFile
from repro.core.synonyms import MergePolicy, SynonymAllocator
from repro.predictors.confidence import ConfidenceKind


class TestSynonymAllocator:
    def test_fresh_synonyms_are_unique_and_nonzero(self):
        alloc = SynonymAllocator()
        values = [alloc.fresh() for _ in range(100)]
        assert len(set(values)) == 100
        assert 0 not in values
        assert alloc.allocated == 100

    def test_incremental_merge_rewrites_larger_only(self):
        alloc = SynonymAllocator(MergePolicy.INCREMENTAL)
        assert alloc.merge(3, 7) == (3, 3)   # sink held the larger value
        assert alloc.merge(7, 3) == (3, 3)   # source held the larger value
        assert alloc.merges == 2

    def test_incremental_merge_bias_converges(self):
        """Repeated pairings always drift toward the smallest synonym."""
        alloc = SynonymAllocator(MergePolicy.INCREMENTAL)
        synonyms = [9, 5, 7, 2, 8]
        for _ in range(10):
            for i in range(len(synonyms) - 1):
                a, b = alloc.merge(synonyms[i], synonyms[i + 1])
                synonyms[i], synonyms[i + 1] = a, b
        assert set(synonyms) == {2}

    def test_full_merge_unifies_immediately(self):
        alloc = SynonymAllocator(MergePolicy.FULL)
        assert alloc.merge(9, 4) == (4, 4)

    def test_never_merge_keeps_both(self):
        alloc = SynonymAllocator(MergePolicy.NEVER)
        assert alloc.merge(9, 4) == (9, 4)

    def test_equal_synonyms_not_counted_as_merge(self):
        alloc = SynonymAllocator()
        assert alloc.merge(5, 5) == (5, 5)
        assert alloc.merges == 0


class TestDPNT:
    def test_ensure_creates_once(self):
        dpnt = DPNT()
        entry = dpnt.ensure(100, synonym=1)
        again = dpnt.ensure(100, synonym=2)
        assert entry is again
        assert entry.synonym == 1  # existing synonym preserved

    def test_lookup_missing(self):
        assert DPNT().lookup(123) is None

    def test_role_predictors_created_lazily(self):
        dpnt = DPNT(confidence=ConfidenceKind.TWO_BIT)
        entry = dpnt.ensure(100, synonym=1)
        assert entry.producer is None and entry.consumer is None
        producer = dpnt.mark_producer(entry)
        assert producer is entry.producer
        assert dpnt.mark_producer(entry) is producer  # idempotent

    def test_finite_table_evicts(self):
        dpnt = DPNT(entries=4, ways=0)
        for pc in range(8):
            dpnt.ensure(pc, synonym=pc + 1)
        present = sum(1 for pc in range(8) if dpnt.lookup(pc) is not None)
        assert present == 4

    def test_set_associative_geometry_validation(self):
        with pytest.raises(ValueError):
            DPNT(entries=10, ways=4)

    def test_rewrite_synonym(self):
        dpnt = DPNT()
        dpnt.ensure(1, synonym=5)
        dpnt.ensure(2, synonym=5)
        dpnt.ensure(3, synonym=9)
        assert dpnt.rewrite_synonym(5, 2) == 2
        assert dpnt.lookup(1).synonym == 2
        assert dpnt.lookup(3).synonym == 9


class TestSynonymFile:
    def test_deposit_then_probe(self):
        sf = SynonymFile()
        sf.deposit(7, value=42, from_store=True)
        entry = sf.probe(7)
        assert entry.full
        assert entry.value == 42
        assert entry.from_store

    def test_allocate_marks_empty(self):
        sf = SynonymFile()
        sf.deposit(7, value=42, from_store=False)
        entry = sf.allocate(7)
        assert not entry.full
        assert entry.value is None

    def test_probe_miss(self):
        assert SynonymFile().probe(99) is None

    def test_finite_capacity_evicts(self):
        sf = SynonymFile(entries=2, ways=0)
        for synonym in range(4):
            sf.deposit(synonym, value=synonym, from_store=False)
        assert sf.probe(0) is None
        assert sf.probe(3) is not None

    def test_from_store_tracks_latest_producer(self):
        sf = SynonymFile()
        sf.deposit(1, value=10, from_store=True)
        sf.deposit(1, value=20, from_store=False)
        entry = sf.probe(1)
        assert entry.value == 20
        assert not entry.from_store

