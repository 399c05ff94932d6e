"""File system aging and extent measurement.

Reproduces the paper's allocator-confidence experiment: "We tried several
tests, ranging from filling up an entire partition with one file to filling
up the last 15% of a heavily fragmented /home partition.  In the best case,
the average extent size was 1.5MB in a 13MB file.  In the worst case, the
average extent size was 62KB in a 16MB file."

``age_filesystem`` runs create/delete churn until a target utilisation
(read from ``statfs``); ``measure_extents`` walks a file's ``bmap`` runs and
reports its extents (a span of contiguous blocks followed by a gap — the
paper's footnote 7 definition).  Both work on any mounted file system with
a block map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator

from repro.errors import NoSpaceError
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.units import KB


@dataclass
class ExtentReport:
    """Extents of one file."""

    file_size: int
    extents: list[int] = field(default_factory=list)  # lengths in bytes

    @property
    def count(self) -> int:
        return len(self.extents)

    @property
    def average(self) -> float:
        """Average extent size in bytes (the paper's metric)."""
        if not self.extents:
            return 0.0
        return sum(self.extents) / len(self.extents)

    @property
    def largest(self) -> int:
        return max(self.extents, default=0)


def measure_extents(system: System, path: str) -> ExtentReport:
    """Collect the file's contiguous extents from its vnode's ``bmap`` runs:
    a run that starts where the previous one ended on the device extends
    its extent.  Holes are in no extent; an extent's bytes are the file's,
    so the extents of a file with no holes sum to its size."""
    st = system.mount.statfs()
    vn = system.run(system.mount.namei(path), name="measure")
    size = vn.size

    def walk() -> Generator[Any, Any, list[int]]:
        extents: list[int] = []
        end = None  # device byte where the current extent stops
        lbn = 0
        while lbn * st.f_bsize < size:
            addr, blocks = yield from vn.bmap(lbn)
            nbytes = min(blocks * st.f_bsize, size - lbn * st.f_bsize)
            lbn += blocks
            if addr == 0:  # a hole: in no extent
                continue
            start = addr * st.f_frsize
            if start == end:
                extents[-1] += nbytes
            else:
                extents.append(nbytes)
            end = start + nbytes
        return extents

    extents = system.run(walk(), name="measure-extents")
    return ExtentReport(file_size=size, extents=extents)


def age_filesystem(system: System, target_utilization: float = 0.75,
                   seed: int = 1991, mean_file_kb: int = 24,
                   churn_factor: float = 2.0) -> int:
    """Create/delete churn until the fs reaches ``target_utilization`` of
    its non-reserved space, with extra churn to fragment the free space.

    Returns the number of files left alive.
    """
    if not 0 < target_utilization < 1:
        raise ValueError("target_utilization must be in (0, 1)")
    mount = system.mount
    rng = random.Random(seed)
    proc = Proc(system, name="aging")

    def used_fraction() -> float:
        """Of the space a writer may use (used + available), how much is
        used: 1 - available / (used + available), as ``df`` has it."""
        st = mount.statfs()
        return 1.0 - st.f_bavail / (st.f_blocks - st.f_bfree + st.f_bavail)

    def make(path: str, size: int):
        fd = yield from proc.creat(path)
        yield from proc.write(fd, bytes(size))
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    def unlink_one() -> None:
        system.run(proc.unlink(live.pop(rng.randrange(len(live)))),
                   name="aging")

    live: list[str] = []
    counter = created = 0
    target_creates = None
    system.run(proc.mkdir("/aged"), name="aging")
    while True:
        if used_fraction() >= target_utilization:
            if target_creates is None:
                # Keep churning (delete+create) to scramble free space.
                target_creates = created * churn_factor
            if created >= target_creates:
                return len(live)
        over_target = used_fraction() >= target_utilization
        if live and (over_target or rng.random() < 0.35):
            unlink_one()
            continue
        size = max(1, int(rng.expovariate(1.0 / mean_file_kb))) * KB
        path = f"/aged/f{counter}"
        counter += 1
        try:
            system.run(make(path, size), name="aging")
            live.append(path)
            created += 1
        except NoSpaceError:
            # Too full to create: delete a few and keep going.
            for _ in range(min(3, len(live))):
                unlink_one()
