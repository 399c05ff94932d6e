"""Free-behind: the MRU compromise for large sequential reads.

"For now, we turn on free behind if the file is in sequential read mode, at
a large enough offset, and free memory is close to the low water mark that
turns on the pager."

The policy is consulted by ``ufs_rdwr`` when it unmaps a page it has just
copied out; a True answer makes the unmap free the page (putpage with
B_FREE), so "the process that is causing the problem is the process finding
the solution" and the pageout daemon stays asleep.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FreeBehindPolicy:
    """Decision function for freeing pages behind a sequential reader."""

    #: The file offset must exceed this before free-behind engages; small
    #: files keep their cache ("still leave in place the caching effects
    #: for smaller files").
    min_offset: int = 256 * 1024
    #: Headroom multiplier on the pager's low water mark: free memory below
    #: ``headroom * lotsfree`` counts as "close to" it.
    headroom: float = 2.0

    def should_free(self, sequential: bool, offset: int, freemem: int,
                    lotsfree: int) -> bool:
        """True if the just-read page at ``offset`` should be freed (asked
        only while free-behind is on: ``ClusterTuning.freebehind``)."""
        return (sequential and offset >= self.min_offset
                and freemem < self.headroom * lotsfree)
