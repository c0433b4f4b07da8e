"""Machine page frames and frame extents.

Machine memory is modelled at *extent* granularity — contiguous runs of
4 KiB frames — because a 12 GB machine has three million frames and
per-frame Python objects would be absurd.  Extents carry no content; the
:class:`MachineMemory` below keeps a sparse map of *content sentinels*
(tokens written by guests) so tests can verify the paper's central claim
mechanically: memory images survive a warm-VM reboot and do not survive a
hardware reset.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import MemoryError_
from repro.units import PAGE_SIZE


@dataclasses.dataclass(frozen=True, order=True)
class Extent:
    """A contiguous run of machine page frames ``[start, start + npages)``."""

    start: int
    npages: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise MemoryError_(f"negative start MFN {self.start}")
        if self.npages <= 0:
            raise MemoryError_(f"extent must have >= 1 page, got {self.npages}")

    @property
    def end(self) -> int:
        """One past the last MFN."""
        return self.start + self.npages

    @property
    def nbytes(self) -> int:
        return self.npages * PAGE_SIZE

    def contains(self, mfn: int) -> bool:
        """True if ``mfn`` lies inside this extent."""
        return self.start <= mfn < self.end

    def overlaps(self, other: "Extent") -> bool:
        """True if the two extents share at least one frame."""
        return self.start < other.end and other.start < self.end

    def __iter__(self) -> typing.Iterator[int]:
        return iter(range(self.start, self.end))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Extent({self.start}..{self.end - 1}, {self.npages}p)"


def coalesce(pieces: typing.Iterable[tuple[int, int]]) -> list[Extent]:
    """Merge start-sorted, disjoint ``(start, npages)`` frame runs into
    maximal extents (adjacent runs join; gaps split)."""
    extents: list[Extent] = []
    start = end = -1
    for first, npages in pieces:
        if first != end:
            if end >= 0:
                extents.append(Extent(start, end - start))
            start = first
        end = first + npages
    if end >= 0:
        extents.append(Extent(start, end - start))
    return extents


class MachineMemory:
    """All machine frames of one physical machine, with content sentinels.

    Content is *sparse*: only pages that something explicitly wrote a token
    into are tracked.  ``lose_contents()`` models what a hardware reset does
    to DRAM (contents undefined afterwards); ``scrub(extent)`` models the
    VMM zeroing pages.
    """

    def __init__(self, total_pages: int) -> None:
        if total_pages <= 0:
            raise MemoryError_(f"machine needs > 0 pages, got {total_pages}")
        self.total_pages = total_pages
        self._tokens: dict[int, typing.Any] = {}

    @property
    def total_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE

    def _check_mfn(self, mfn: int) -> None:
        if not 0 <= mfn < self.total_pages:
            raise MemoryError_(
                f"MFN {mfn} out of range [0, {self.total_pages})"
            )

    def write_token(self, mfn: int, token: typing.Any) -> None:
        """Write a content sentinel into one frame."""
        self._check_mfn(mfn)
        self._tokens[mfn] = token

    def read_token(self, mfn: int) -> typing.Any:
        """Read a frame's sentinel; None if never written or scrubbed/lost."""
        self._check_mfn(mfn)
        return self._tokens.get(mfn)

    def scrub(self, extent: Extent) -> None:
        """Zero the frames of ``extent`` (tokens become None)."""
        if extent.end > self.total_pages:
            raise MemoryError_(f"{extent} exceeds machine memory")
        if extent.npages > len(self._tokens):
            # Cheaper to filter the sparse map than iterate a huge extent.
            self._tokens = {
                mfn: tok
                for mfn, tok in self._tokens.items()
                if not extent.contains(mfn)
            }
        else:
            for mfn in extent:
                self._tokens.pop(mfn, None)

    def lose_contents(self) -> None:
        """Model a hardware reset: every frame's content becomes undefined."""
        self._tokens.clear()

    def written_count(self) -> int:
        """Number of frames currently holding a sentinel (for tests)."""
        return len(self._tokens)
