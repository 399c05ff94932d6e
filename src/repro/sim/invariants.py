"""Cross-layer invariant checks ("simsan").

The paper's performance tricks are controlled lies: write clustering lies
about delayed pages, free-behind drops pages the pager thinks it owns, and
the write-limit semaphore promises that every queued byte is eventually
credited back.  Each lie rests on an accounting invariant that spans two or
more layers — and no single unit test exercises those seams.  This module
is the registry of such invariants, checked at *quiesce points*:

* after every :meth:`System.run`/``run_all`` (the engine is idle: no bufs
  outstanding, throttles drained, no requests open);
* inside ``fsync`` (not idle — other processes may be mid-I/O — so only the
  always-true subset runs);
* at campaign ends and benchmark phase boundaries;
* optionally every N simulated seconds (:meth:`Sanitizer.attach_every`).

The nine checks of :data:`Sanitizer.CHECKS`, in the order they run, and
the owner of each.  A check of one layer's own books is a method of that
layer, which the sanitizer calls; a check that reads two layers at once
lives here.

``engine_liveness`` — :meth:`Engine.check_liveness`
    The run-to-idle counter equals the number of non-cancelled, non-daemon
    heap entries, so it can neither wedge the loop nor stop it early.
``buf_balance`` — :meth:`BlockDevice.check_buf_balance` (idle only)
    Every buf strategy() took completed exactly once, coalescing and
    split-retry included, and nothing is queued or in service; a volume
    checks its own books, then each member's driver.
``throttle_conservation`` — here: throttles x driver
    The write throttles ``system.mount.throttles()`` lists are never
    over-credited, the bytes charged never fall below the bytes still in
    the driver for that file, and at idle every throttle is drained.
``request_spans`` — :meth:`RequestRegistry.check_spans`
    No request finishes with a child span still open; at idle none is open
    and the in-flight gauge reads zero.
``page_coherency`` — :meth:`Vfs.check_page_coherency`
    UFS: every clean, valid, unlocked page of a file is byte-identical to
    its fragments on disk, resolved through the pointers bmap uses, and
    every directory view a cached buffer carries equals a decode of its
    bytes (raised as ``dir_views``).
``page_index`` — :meth:`PageCache.check_index`
    The per-vnode page index holds exactly the pages the name hash holds,
    with no emptied vnode left behind.
``allocator`` — :meth:`Vfs.check_allocator`
    UFS: the group bitmaps agree with the group counters and the
    superblock totals, and every fragment an active inode points at is
    allocated; ``deep`` also runs fsck's walkers read-only.
``write_cache`` — :meth:`VolatileWriteCache.check_accounting`, per member
    The byte counter equals the bytes held, each entry holds its sectors'
    bytes, and at idle the cache fits its limit.
``integrity`` — here: integrity region x disk x write cache (deep only)
    Every stamped fragment's media bytes match its record.

The two :class:`~repro.vfs.vnode.Vfs` checks are empty on the base class:
S5FS and the NFS client run them as no-ops until they have checks of their
own, so the count of checks a run reports does not depend on which file
system is mounted.

A violation raises :class:`SanitizerError`, which carries the offending
request's rendered span tree when one is attributable.

Adding a check: a check of one layer's books is a method of that layer
taking ``(point, ..., fail)`` and calling ``fail(check, message)``; a
check that reads two layers at once is a ``Sanitizer`` method.  Either
way it gets one entry in :data:`Sanitizer.CHECKS`, with ``idle_only``
set if it only holds when the engine has drained.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.system import System
    from repro.sim.engine import Recurring

#: The innermost :func:`sanitizing` scope's value; None outside every scope.
_SCOPE: "ContextVar[bool | None]" = ContextVar("sanitizing", default=None)


@contextmanager
def sanitizing(on: bool) -> Iterator[None]:
    """Every machine built inside this scope is born with its sanitizer on
    (or off), so its boot and a crash survivor's mount are checked too."""
    token = _SCOPE.set(on)
    try:
        yield
    finally:
        _SCOPE.reset(token)


def default_enabled() -> bool:
    """Whether a sanitizer built now starts on: the innermost
    :func:`sanitizing` scope, else ``REPRO_SANITIZE=1`` (the test suite
    sets it in ``tests/conftest.py``; production runs default off)."""
    scoped = _SCOPE.get()
    env = os.environ.get("REPRO_SANITIZE", "0").lower()
    return env in ("1", "true", "yes", "on") if scoped is None else scoped


class SanitizerError(SimulationError):
    """An invariant violation: a bug in the simulation, never a modelled
    fault.  Carries the failed check's name and, when one is attributable,
    the offending request's span tree."""

    def __init__(self, check: str, message: str,
                 span_tree: "str | None" = None):
        self.check = check
        self.span_tree = span_tree
        text = f"[simsan:{check}] {message}"
        if span_tree:
            text += f"\nrequest span tree:\n{span_tree}"
        super().__init__(text)


class Sanitizer:
    """The per-machine registry of cross-layer invariant checks."""

    def __init__(self, system: "System"):
        self.system = system
        #: Fixed at birth by :func:`default_enabled` (tests may flip it).
        self.enabled = default_enabled()
        #: Checkpoints taken and checks run, for tests and reports.
        self.checkpoints = 0
        self.checks_run = 0

    # -- running ----------------------------------------------------------
    def checkpoint(self, point: str, idle: bool, deep: bool = False) -> None:
        """Run every applicable check; raise on the first violation.

        ``idle`` asserts the engine has drained (post-``run`` quiesce);
        checks marked ``idle_only`` are skipped otherwise.  ``deep`` adds
        the expensive on-disk pass (fsck's walkers, read-only).
        """
        if not self.enabled:
            return
        self.checkpoints += 1
        for name, idle_only, fn in self.CHECKS:
            if idle_only and not idle:
                continue
            self.checks_run += 1
            fn(self, point, idle, deep)

    def attach_every(self, seconds: float) -> "Recurring":
        """Also run the non-idle-safe checks every ``seconds`` of simulated
        time, until the returned timer is cancelled.

        The cadence is simulated work, not host work, so an engine that
        takes fewer steps to the same clock checks exactly as often.  The
        checkpoint is a heap entry of its own (a daemon one: it fires while
        real work runs and never holds a run open), so it falls on a step
        boundary, and no clock run-ahead (DESIGN.md §5.2) can pass it.
        """
        return self.system.engine.every(
            seconds, lambda: self.checkpoint("timer", idle=False))

    def fail(self, check: str, message: str, request: Any = None) -> None:
        """Raise a :class:`SanitizerError`, attaching ``request``'s span
        tree when tracing captured one."""
        raise SanitizerError(check, message, span_tree=render_request(request))

    # -- checks of one layer's books, kept by that layer --------------------
    def _check_engine_liveness(self, point: str, idle: bool,
                               deep: bool) -> None:
        self.system.engine.check_liveness(point, idle, self.fail)

    def _check_buf_balance(self, point: str, idle: bool, deep: bool) -> None:
        self.system.driver.check_buf_balance(point, self.fail)

    def _check_request_spans(self, point: str, idle: bool,
                             deep: bool) -> None:
        self.system.requests.check_spans(point, idle, self.fail)

    def _check_page_coherency(self, point: str, idle: bool,
                              deep: bool) -> None:
        if self.system.mount is not None:
            self.system.mount.check_page_coherency(point, self.fail)

    def _check_page_index(self, point: str, idle: bool, deep: bool) -> None:
        self.system.pagecache.check_index(point, self.fail)

    def _check_allocator(self, point: str, idle: bool, deep: bool) -> None:
        if self.system.mount is not None:
            self.system.mount.check_allocator(point, deep, self.fail)

    def _check_write_cache(self, point: str, idle: bool, deep: bool) -> None:
        for member in self.system.volume.members:
            if member.write_cache is not None:
                member.write_cache.check_accounting(point, idle, member.name,
                                                    self.fail)

    # -- cross-layer checks ------------------------------------------------
    def _check_throttles(self, point: str, idle: bool, deep: bool) -> None:
        # Bytes still in the driver per throttle, recovered from the write
        # iodone hooks riding on the outstanding bufs.
        queued: dict[int, int] = {}
        for buf in self.system.driver.outstanding.values():
            for hook in buf.iodone:
                throttle = getattr(hook, "throttle", None)
                charged = getattr(hook, "charged", None)
                if throttle is not None and charged is not None:
                    queued[id(throttle)] = queued.get(id(throttle), 0) + charged
        mount = self.system.mount
        for owner, throttle in mount.throttles() if mount is not None else ():
            if not throttle.enabled:
                continue  # limit 0: take/credit are no-ops, nothing to hold
            if throttle.value > throttle.limit:
                self.fail(
                    "throttle_conservation",
                    f"at {point}: {owner} write throttle over-credited "
                    f"(value={throttle.value} > limit={throttle.limit})",
                )
            in_driver = queued.get(id(throttle), 0)
            if throttle.in_flight < in_driver:
                self.fail(
                    "throttle_conservation",
                    f"at {point}: {owner} has {in_driver} bytes queued in "
                    f"the driver but only {throttle.in_flight} charged "
                    "(a completion credited bytes still in flight)",
                )
            if idle and throttle.in_flight != 0:
                self.fail(
                    "throttle_conservation",
                    f"at {point}: {owner} still has "
                    f"{throttle.in_flight} bytes charged at idle "
                    "(a completion path never credited them back)",
                )

    def _check_integrity(self, point: str, idle: bool, deep: bool) -> None:
        """Every stamped fragment's media bytes must match its record.

        Deep-only: it reads the whole stamped set, and is only sound at a
        full quiesce (dirty cache pages may legitimately be newer than the
        media, but their *fragments* were stamped at the last media write,
        so a synced machine has no excuse).  Skipped per fragment: BAD
        marks (scrub already gave up, loudly) and write-cache overlays
        (those bytes are stamped at destage).
        """
        if not deep:
            return
        region = self.system.disk.integrity
        if region is None:
            return
        fs = region.frag_sectors
        cache = self.system.write_cache
        for frag in region.stamped_frags():
            if region.record(frag).bad:
                continue
            data = self.system.disk.read_through(frag * fs, fs)
            bad = region.verify_range(frag * fs, data, cache=cache)
            if bad:
                frag_, reason = bad[0]
                self.fail(
                    "integrity",
                    f"at {point}: fragment {frag_} fails its integrity "
                    f"record ({reason}) with no fault outstanding",
                )

    #: The check registry: (name, idle_only, method).
    CHECKS: "list[tuple[str, bool, Callable[..., None]]]" = [
        ("engine_liveness", False, _check_engine_liveness),
        ("buf_balance", True, _check_buf_balance),
        ("throttle_conservation", False, _check_throttles),
        ("request_spans", False, _check_request_spans),
        ("page_coherency", False, _check_page_coherency),
        ("page_index", False, _check_page_index),
        ("allocator", False, _check_allocator),
        ("write_cache", False, _check_write_cache),
        ("integrity", False, _check_integrity),
    ]


def render_request(request: Any) -> "str | None":
    """The span tree of ``request`` as text, when tracing captured one."""
    if request is None:
        return None
    tracer = getattr(request, "tracer", None)
    root = getattr(request, "root", None)
    if tracer is None or root is None or not tracer.spans:
        return None
    try:
        return tracer.render_spans(root)
    except Exception:  # pragma: no cover - rendering must never mask the bug
        return None
