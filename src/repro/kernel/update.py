"""The update daemon: periodic sync, as update(8)/bdflush did.

Old UNIX "periodically flushes the cache to avoid file system
inconsistencies in the event of a system crash or power failure."  The
paper's related-work comparison hinges on what that periodic flush does to
the disk queue when writes have been accumulating (Peacock) versus being
pushed at each cluster boundary (this paper): "If the I/O were flushed to
disk at each cluster boundary, the disks are kept uniformly busy, instead
[of] developing large disk queues."
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.ufs.mount import UfsMount


class UpdateDaemon:
    """Calls ``mount.sync()`` every :attr:`PERIOD` simulated seconds."""

    PERIOD = 5.0

    def __init__(self, engine: "Engine", mount: "UfsMount"):
        self.engine = engine
        self.mount = mount
        self.syncs = 0
        self._proc = engine.process(self._run(), name="update")

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield self.engine.timeout(self.PERIOD, daemon=True)
            yield from self.mount.sync()
            self.syncs += 1
