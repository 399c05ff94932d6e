"""Programs: a workload written as data, and the one loop that runs it.

An op is a plain tuple ``(name, path, *args)``; a program is a tuple of
ops.  ``name`` is a :class:`~repro.kernel.syscalls.Proc` method, given
``path`` as its first argument — or, for an fd method (``FD_OPS``), the
fd the program last opened on ``path``.  The one op that is no syscall,
``("writeback", path)``, pushes the file's dirty pages without waiting or
flushing, as the update daemon would: they stay in a drive's volatile
cache until something barriers.  Write ops carry their bytes, so a
program's printed form is the program.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.kernel.syscalls import Proc
from repro.vfs.vnode import PutFlags

Op = tuple[Any, ...]
Program = tuple[Op, ...]

FD_OPS = frozenset("close read write pwrite pread lseek fsync".split())


def step(proc: Proc, fds: "dict[str, int]", op: Op
         ) -> Generator[Any, Any, Any]:
    """Run one op as ``proc``; ``fds`` maps each path the program opened
    to its fd.  Returns the op's result; an error propagates."""
    name, path, *args = op
    if name == "writeback":
        vn = yield from proc.system.mount.namei(path)
        if vn.size > 0:
            yield from vn.putpage(0, vn.size, PutFlags(async_=True))
        return None
    call = getattr(proc, name)
    result = yield from (call(fds[path], *args) if name in FD_OPS
                         else call(path, *args))
    if name in ("open", "creat"):
        fds[path] = result
    return result


def run(proc: Proc, program: Program) -> Generator[Any, Any, list]:
    """Run every op of ``program`` as ``proc``; returns each op's result."""
    fds: "dict[str, int]" = {}
    results = []
    for op in program:
        results.append((yield from step(proc, fds, op)))
    return results
