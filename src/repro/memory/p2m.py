"""P2M mapping tables: pseudo-physical to machine frame translation.

Per §4.1, the VMM keeps a *P2M-mapping table* per domain recording, for
every pseudo-physical frame number (PFN), which machine frame (MFN) backs
it.  The table is what lets a rebooted VMM re-adopt a suspended domain's
memory: entries are preserved across the quick reload and replayed into
the frame allocator before anything else can allocate.

A table is stored as PFN-sorted *runs* ``(pfn, mfn, npages)``: PFNs
``[pfn, pfn + npages)`` map to MFNs ``[mfn, mfn + npages)``.  Domains are
built from a handful of allocator extents, so a table holds a few runs
and every operation costs O(runs) or O(log runs), never O(pages).
:attr:`P2MTable.table_bytes` still reports the *modelled* footprint of the
table the paper describes — 8 bytes per 4 KiB page = **2 MiB per GiB** of
pseudo-physical memory — computed from the page count, not from what the
runs occupy on the host.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

from repro.errors import P2MError
from repro.memory.frames import Extent, coalesce
from repro.units import PAGE_SIZE

ENTRY_BYTES = 8
"""Modelled size of one P2M entry (§4.1: 2 MB of table per GB of RAM)."""


class P2MRun(typing.NamedTuple):
    """PFNs ``[pfn, pfn + npages)`` backed by MFNs ``[mfn, mfn + npages)``."""

    pfn: int
    mfn: int
    npages: int


@dataclasses.dataclass(frozen=True)
class P2MSnapshot:
    """An immutable P2M table value (the suspend image's copy)."""

    pages: int
    """Pseudo-physical size of the domain, in pages."""

    runs: tuple[P2MRun, ...]
    """The table's runs, PFN-sorted and disjoint."""

    @property
    def table_bytes(self) -> int:
        """Modelled footprint of the table (8 B per PFN: 2 MiB per GiB)."""
        return self.pages * ENTRY_BYTES


class P2MTable:
    """One domain's PFN → MFN mapping."""

    def __init__(self, domain_name: str, pseudo_physical_pages: int) -> None:
        if pseudo_physical_pages <= 0:
            raise P2MError(
                f"domain {domain_name!r} needs > 0 pages, "
                f"got {pseudo_physical_pages}"
            )
        self.domain_name = domain_name
        self._pages = pseudo_physical_pages
        self._set_runs(())

    def _set_runs(self, runs: tuple[P2MRun, ...]) -> None:
        # Runs are an immutable tuple, so snapshot() can share it; every
        # mutation builds a new one (O(runs)) and re-derives the bisect keys.
        self._runs = runs
        self._starts = [run.pfn for run in runs]
        self._mapped = sum(run.npages for run in runs)

    # -- sizing -----------------------------------------------------------------

    @property
    def pseudo_physical_pages(self) -> int:
        return self._pages

    @property
    def table_bytes(self) -> int:
        """Modelled footprint of the table (8 B per PFN: 2 MiB per GiB)."""
        return self._pages * ENTRY_BYTES

    @property
    def mapped_pages(self) -> int:
        return self._mapped

    # -- mapping -----------------------------------------------------------------

    def map_extent(self, pfn_start: int, extent: Extent) -> None:
        """Map ``extent.npages`` consecutive PFNs starting at ``pfn_start``."""
        pfn_end = pfn_start + extent.npages
        if pfn_start < 0 or pfn_end > self._pages:
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) outside domain "
                f"{self.domain_name!r} (size {self._pages})"
            )
        runs = self._runs
        # Every run before ``index`` starts below pfn_end; only the last of
        # them can reach into the new range (runs are disjoint and sorted).
        index = bisect.bisect_left(self._starts, pfn_end)
        if index and _pfn_end(runs[index - 1]) > pfn_start:
            raise P2MError(
                f"PFN range [{pfn_start}, {pfn_end}) already mapped in "
                f"{self.domain_name!r}"
            )
        new = P2MRun(pfn_start, extent.start, extent.npages)
        low, high = index, index
        if index and _continues(runs[index - 1], new):
            low -= 1
            left = runs[low]
            new = P2MRun(left.pfn, left.mfn, left.npages + new.npages)
        if index < len(runs) and _continues(new, runs[index]):
            new = P2MRun(new.pfn, new.mfn, new.npages + runs[index].npages)
            high += 1
        self._set_runs(runs[:low] + (new,) + runs[high:])

    def unmap_range(self, pfn_start: int, npages: int) -> list[Extent]:
        """Unmap a PFN range, returning the machine extents released
        (coalesced and MFN-sorted)."""
        pfn_end = pfn_start + npages
        if pfn_start < 0 or npages < 0 or pfn_end > self._pages:
            raise P2MError(f"PFN range [{pfn_start}, {pfn_end}) out of range")
        if npages == 0:
            return []
        runs = self._runs
        # The runs covering the range must be consecutive and gap-free,
        # starting with the one holding pfn_start.
        first = index = bisect.bisect_right(self._starts, pfn_start) - 1
        kept: list[P2MRun] = []
        released: list[tuple[int, int]] = []
        cursor = pfn_start
        while cursor < pfn_end:
            if not (
                0 <= index < len(runs)
                and runs[index].pfn <= cursor < _pfn_end(runs[index])
            ):
                raise P2MError(
                    f"PFN range [{pfn_start}, {pfn_end}) not fully mapped"
                )
            run = runs[index]
            run_end = _pfn_end(run)
            if run.pfn < pfn_start:
                kept.append(P2MRun(run.pfn, run.mfn, pfn_start - run.pfn))
            high = min(run_end, pfn_end)
            released.append((run.mfn + cursor - run.pfn, high - cursor))
            if pfn_end < run_end:
                kept.append(
                    P2MRun(pfn_end, run.mfn + pfn_end - run.pfn, run_end - pfn_end)
                )
            cursor = high
            index += 1
        self._set_runs(runs[:first] + tuple(kept) + runs[index:])
        return coalesce(sorted(released))

    def mfn_of(self, pfn: int) -> int:
        """Translate one PFN; raises if unmapped."""
        if not 0 <= pfn < self._pages:
            raise P2MError(f"PFN {pfn} out of range")
        run = self._run_at(pfn)
        if run is None:
            raise P2MError(f"PFN {pfn} unmapped in {self.domain_name!r}")
        return run.mfn + pfn - run.pfn

    def is_mapped(self, pfn: int) -> bool:
        """True if ``pfn`` is in range and currently backed by an MFN."""
        return self._run_at(pfn) is not None

    def _run_at(self, pfn: int) -> P2MRun | None:
        index = bisect.bisect_right(self._starts, pfn) - 1
        if index >= 0:
            run = self._runs[index]
            if pfn < _pfn_end(run):
                return run
        return None

    def machine_extents(self) -> list[Extent]:
        """All machine extents backing this domain, coalesced and sorted.

        This is what quick reload replays into the allocator after reboot.
        """
        return coalesce(sorted((run.mfn, run.npages) for run in self._runs))

    def machine_pages(self) -> int:
        """Total machine pages currently backing this domain."""
        return self._mapped

    def check_bijective(self) -> None:
        """Every mapped PFN must name a distinct MFN (no aliasing)."""
        previous_end = -1
        for mfn, npages in sorted((run.mfn, run.npages) for run in self._runs):
            if mfn < previous_end:
                raise P2MError(f"aliased MFNs in {self.domain_name!r}")
            previous_end = mfn + npages

    def mfn_to_pfn(self, mfns: typing.Iterable[int]) -> dict[int, int]:
        """Reverse-translate machine frames to the PFNs they back here.

        MFNs not mapped by this domain are silently absent from the result,
        whose keys come in ascending PFN order.  Each frame is found by a
        bisect over the MFN-sorted runs, so a sparse handful of frames
        costs O(frames · log runs), independent of the domain's size.
        """
        by_mfn = sorted(self._runs, key=lambda run: run.mfn)
        mfn_starts = [run.mfn for run in by_mfn]
        found: list[tuple[int, int]] = []
        for mfn in mfns:
            index = bisect.bisect_right(mfn_starts, mfn) - 1
            if index >= 0:
                run = by_mfn[index]
                if mfn < run.mfn + run.npages:
                    found.append((run.pfn + mfn - run.mfn, mfn))
        found.sort()
        return {mfn: pfn for pfn, mfn in found}

    def snapshot(self) -> P2MSnapshot:
        """The table's current value (for save/restore paths); immutable,
        so it shares the runs instead of copying them."""
        return P2MSnapshot(self._pages, self._runs)

    @classmethod
    def from_snapshot(cls, domain_name: str, snapshot: P2MSnapshot) -> "P2MTable":
        """A table adopting ``snapshot``'s runs (no copy)."""
        table = cls(domain_name, snapshot.pages)
        table._set_runs(snapshot.runs)
        return table


def _pfn_end(run: P2MRun) -> int:
    return run.pfn + run.npages


def _continues(left: P2MRun, right: P2MRun) -> bool:
    """True if ``right`` extends ``left`` in both PFN and MFN space."""
    return _pfn_end(left) == right.pfn and left.mfn + left.npages == right.mfn


def table_bytes_for(memory_bytes: int) -> int:
    """P2M footprint for a domain of ``memory_bytes`` pseudo-physical RAM."""
    return (memory_bytes // PAGE_SIZE) * ENTRY_BYTES
