"""Unit and property tests for P2M mapping tables."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import P2MError
from repro.memory import Extent, P2MRun, P2MSnapshot, P2MTable, table_bytes_for
from repro.units import GiB, KiB, MiB, pages


class TestMapping:
    def test_map_and_translate(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 100))
        assert p2m.mfn_of(0) == 500
        assert p2m.mfn_of(99) == 599

    def test_unmapped_pfn_raises(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.mfn_of(0)

    def test_pfn_out_of_range(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.mfn_of(100)
        with pytest.raises(P2MError):
            p2m.map_extent(90, Extent(0, 20))

    def test_double_map_rejected(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        with pytest.raises(P2MError):
            p2m.map_extent(40, Extent(700, 20))

    def test_is_mapped(self):
        p2m = P2MTable("dom1", 10)
        p2m.map_extent(2, Extent(100, 3))
        assert not p2m.is_mapped(1)
        assert p2m.is_mapped(2) and p2m.is_mapped(4)
        assert not p2m.is_mapped(5)
        assert not p2m.is_mapped(99)

    def test_zero_size_table_rejected(self):
        with pytest.raises(P2MError):
            P2MTable("dom1", 0)


class TestUnmap:
    def test_unmap_returns_machine_extents(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        p2m.map_extent(50, Extent(900, 50))
        released = p2m.unmap_range(40, 20)
        assert released == [Extent(540, 10), Extent(900, 10)]
        assert not p2m.is_mapped(45)

    def test_unmap_across_runs_returns_mfn_sorted_extents(self):
        p2m = P2MTable("dom1", 30)
        p2m.map_extent(0, Extent(900, 10))
        p2m.map_extent(10, Extent(100, 10))
        p2m.map_extent(20, Extent(110, 10))  # continues the run at 100
        assert p2m.unmap_range(5, 20) == [Extent(100, 15), Extent(905, 5)]
        assert p2m.machine_extents() == [Extent(115, 5), Extent(900, 5)]

    def test_unmap_across_gap_rejected_and_atomic(self):
        p2m = P2MTable("dom1", 30)
        p2m.map_extent(0, Extent(500, 10))
        p2m.map_extent(20, Extent(700, 10))
        with pytest.raises(P2MError):
            p2m.unmap_range(5, 20)
        assert p2m.machine_extents() == [Extent(500, 10), Extent(700, 10)]
        assert p2m.mapped_pages == 20

    def test_unmap_unmapped_rejected(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.unmap_range(0, 10)

    def test_unmap_out_of_range(self):
        p2m = P2MTable("dom1", 100)
        with pytest.raises(P2MError):
            p2m.unmap_range(95, 10)


class TestMachineExtents:
    def test_coalesces_contiguous(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        p2m.map_extent(50, Extent(550, 50))  # contiguous machine memory
        assert p2m.machine_extents() == [Extent(500, 100)]

    def test_reports_disjoint_runs(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 50))
        p2m.map_extent(50, Extent(900, 50))
        assert p2m.machine_extents() == [Extent(500, 50), Extent(900, 50)]

    def test_empty_table(self):
        assert P2MTable("dom1", 10).machine_extents() == []


class TestFootprint:
    def test_2mib_per_gib(self):
        """The paper's stated table size: 2 MB per 1 GB of memory (§4.1)."""
        p2m = P2MTable("dom1", pages(1 * GiB))
        assert p2m.table_bytes == 2 * MiB
        assert table_bytes_for(1 * GiB) == 2 * MiB

    def test_footprint_scales(self):
        assert table_bytes_for(11 * GiB) == 22 * MiB

    def test_host_footprint_independent_of_domain_size(self):
        """A 64 GiB domain mapped by one extent costs a few runs on the
        host, not the 128 MiB table it models (which table_bytes still
        reports)."""
        npages = pages(64 * GiB)
        tracemalloc.start()
        try:
            p2m = P2MTable("big", npages)
            p2m.map_extent(0, Extent(1000, npages))
            restored = P2MTable.from_snapshot("big", p2m.snapshot())
            extents = restored.machine_extents()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert extents == [Extent(1000, npages)]
        assert restored.table_bytes == 128 * MiB
        assert peak < 64 * KiB


class TestSnapshot:
    def test_roundtrip(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(10, Extent(500, 30))
        snap = p2m.snapshot()
        restored = P2MTable.from_snapshot("dom1", snap)
        assert restored.mfn_of(10) == 500
        assert restored.machine_extents() == p2m.machine_extents()

    def test_snapshot_is_frozen_copy(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 10))
        snap = p2m.snapshot()
        p2m.unmap_range(0, 10)
        # Unaffected by later mutation of the table it came from ...
        restored = P2MTable.from_snapshot("dom1", snap)
        assert restored.mfn_of(0) == 500
        # ... or of a table that adopted it.
        restored.unmap_range(0, 5)
        assert P2MTable.from_snapshot("dom1", snap).mfn_of(0) == 500
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.runs = ()
        with pytest.raises(TypeError):
            snap.runs[0] = P2MRun(0, 0, 10)

    def test_bijectivity_check(self):
        p2m = P2MTable("dom1", 100)
        p2m.map_extent(0, Extent(500, 10))
        p2m.check_bijective()
        # Simulate a VMM bug: a second run maps PFN 10 onto MFN 509, which
        # already backs PFN 9.
        aliased = P2MTable.from_snapshot(
            "dom1", P2MSnapshot(100, (P2MRun(0, 500, 10), P2MRun(10, 509, 1)))
        )
        with pytest.raises(P2MError):
            aliased.check_bijective()


@settings(max_examples=50, deadline=None)
@given(
    segments=st.lists(
        st.integers(min_value=1, max_value=32), min_size=1, max_size=10
    )
)
def test_p2m_extent_replay_is_lossless(segments):
    """Property: mapping arbitrary disjoint machine extents and reading back
    machine_extents() conserves exactly the set of machine pages — the
    quick-reload replay path cannot lose or invent pages."""
    total = sum(segments)
    p2m = P2MTable("d", total)
    pfn = 0
    mfn = 0
    expected_pages = set()
    for i, seg in enumerate(segments):
        gap = 5  # leave machine gaps so extents stay disjoint
        extent = Extent(mfn, seg)
        p2m.map_extent(pfn, extent)
        expected_pages.update(range(extent.start, extent.end))
        pfn += seg
        mfn += seg + gap
    replayed = set()
    for extent in p2m.machine_extents():
        replayed.update(range(extent.start, extent.end))
    assert replayed == expected_pages
    p2m.check_bijective()


# -- differential test against a dense reference model ----------------------

_PAGES = 24
_MFNS = 64


class _DenseP2M:
    """Reference model: one list slot per PFN, ``None`` when unmapped."""

    def __init__(self, npages):
        self.slots = [None] * npages

    def copy(self):
        model = _DenseP2M(0)
        model.slots = list(self.slots)
        return model

    def map(self, pfn, mfn, npages):
        if pfn < 0 or pfn + npages > len(self.slots):
            raise P2MError("out of range")
        if any(slot is not None for slot in self.slots[pfn : pfn + npages]):
            raise P2MError("already mapped")
        self.slots[pfn : pfn + npages] = range(mfn, mfn + npages)

    def unmap(self, pfn, npages):
        if pfn < 0 or npages < 0 or pfn + npages > len(self.slots):
            raise P2MError("out of range")
        window = self.slots[pfn : pfn + npages]
        if None in window:
            raise P2MError("not fully mapped")
        self.slots[pfn : pfn + npages] = [None] * npages
        return _extents_of(window)

    def machine_extents(self):
        return _extents_of([mfn for mfn in self.slots if mfn is not None])

    def mfn_to_pfn(self, mfns):
        wanted = set(mfns)
        return {
            mfn: pfn
            for pfn, mfn in enumerate(self.slots)
            if mfn is not None and mfn in wanted
        }


def _extents_of(mfns):
    """Coalesce MFNs into sorted maximal extents, one frame at a time."""
    extents = []
    for mfn in sorted(mfns):
        if extents and extents[-1].end == mfn:
            extents[-1] = Extent(extents[-1].start, extents[-1].npages + 1)
        else:
            extents.append(Extent(mfn, 1))
    return extents


_OPS = st.one_of(
    st.tuples(
        st.just("map"),
        st.integers(-2, _PAGES + 2),
        st.integers(0, _MFNS - 8),
        st.integers(1, 8),
    ),
    # map at the lowest unmapped PFN, so runs often sit PFN-adjacent
    st.tuples(st.just("fill"), st.integers(0, _MFNS - 8), st.integers(1, 8)),
    st.tuples(st.just("unmap"), st.integers(-2, _PAGES + 2), st.integers(-1, 16)),
    st.tuples(st.just("tail"), st.integers(1, 6)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


def _assert_matches(p2m, model):
    for pfn in range(-2, _PAGES + 2):
        mapped = 0 <= pfn < _PAGES and model.slots[pfn] is not None
        assert p2m.is_mapped(pfn) == mapped
        if mapped:
            assert p2m.mfn_of(pfn) == model.slots[pfn]
        else:
            with pytest.raises(P2MError):
                p2m.mfn_of(pfn)
    assert p2m.mapped_pages == sum(slot is not None for slot in model.slots)
    assert p2m.machine_extents() == model.machine_extents()
    query = list(range(_MFNS + 4, -3, -1))  # descending, some never mapped
    got = p2m.mfn_to_pfn(query)
    expected = model.mfn_to_pfn(query)
    assert got == expected
    assert list(got) == list(expected)  # key order: ascending PFN


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_OPS, min_size=8, max_size=48))
def test_p2m_matches_dense_reference(ops):
    """Property: the run-based table answers every query exactly like a
    dense per-PFN table, across random maps, unmaps (splits inside a run,
    balloon-style tail unmaps) and snapshot round trips, and rejects
    exactly the operations the dense table rejects."""
    p2m = P2MTable("d", _PAGES)
    model = _DenseP2M(_PAGES)
    saved = (p2m.snapshot(), model.copy())
    for kind, *args in ops:
        if kind == "snapshot":
            # The saved value must survive every later mutation, and the
            # live table continues from an adopted copy of it.
            saved = (p2m.snapshot(), model.copy())
            p2m = P2MTable.from_snapshot("d", saved[0])
        elif kind == "restore":
            p2m = P2MTable.from_snapshot("d", saved[0])
            model = saved[1].copy()
        else:
            if kind in ("map", "fill"):
                if kind == "fill":
                    mfn, npages = args
                    pfn = next(
                        (i for i in range(_PAGES) if model.slots[i] is None), 0
                    )
                else:
                    pfn, mfn, npages = args
                if any(slot in range(mfn, mfn + npages) for slot in model.slots):
                    continue  # aliasing is check_bijective's concern
                real = lambda: p2m.map_extent(pfn, Extent(mfn, npages))
                reference = lambda: model.map(pfn, mfn, npages)
            else:
                if kind == "tail":
                    (npages,) = args
                    top = max(
                        (i + 1 for i in range(_PAGES) if model.slots[i] is not None),
                        default=0,
                    )
                    pfn = top - npages
                else:
                    pfn, npages = args
                real = lambda: p2m.unmap_range(pfn, npages)
                reference = lambda: model.unmap(pfn, npages)
            try:
                expected = reference()
            except P2MError:
                with pytest.raises(P2MError):
                    real()
            else:
                assert real() == expected
        _assert_matches(p2m, model)
