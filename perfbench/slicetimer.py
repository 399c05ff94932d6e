"""Host-time tracer: which layer of ``src/repro`` the interpreter is in.

Spans are recorded from perfbench's side of the fence: :meth:`SliceTimer.
install` replaces each layer's public entry points (:data:`PROBES`) with
timing wrappers by class-attribute patching and :meth:`~SliceTimer.
uninstall` puts the originals back; nothing under ``src/`` is edited.

Simulated processes are generators that interleave on one host thread, so
a span from a generator's first ``send`` to its ``StopIteration`` would
bill its layer for everything the engine ran in between.  Generator entry
points are therefore timed **per resume slice**: the wrapper hands back a
proxy whose ``send``/``throw``/``close`` push the layer on entry and pop
it at the next ``yield``.  All slices nest properly on the host stack, so
a slice's self time is its duration minus the slices nested in it, and a
layer's host time is the sum of its entry points' self times.

Code that is not an entry point is billed to the nearest enclosing one
(``Resource.use`` under ``Cpu.work`` counts as ``cpu``; a workload's own
generator body runs under ``Engine.step`` and counts as ``sim``).
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
from contextlib import contextmanager
from itertools import count
from time import perf_counter
from types import FunctionType, GeneratorType

#: The layers with host-time metrics (``src/repro`` package names).  ``vfs``
#: is an abstract base; ``s5fs`` and ``faults`` are comparison/correctness
#: tools whose host cost is boots + fsck, which ``meta_churn`` covers.
LAYERS = ("sim", "cpu", "disk", "vm", "ufs", "core", "kernel", "nfs",
          "integrity", "obs", "bench")

#: ``(layer, "module[:Class]", attribute patterns, is_root)``.  A root is
#: what its nested slices are grouped under in the trace: a syscall, or a
#: whole-run phase.  Patterns are fnmatch globs over the owner's functions.
PROBES = (
    ("sim", "repro.sim.engine:Engine", ("step", "run", "run_process"), False),
    ("cpu", "repro.cpu.cpu:Cpu", ("work", "copy"), False),
    ("kernel", "repro.kernel.syscalls:Proc", ("[a-z]*",), True),
    ("kernel", "repro.kernel.system:System", ("run", "run_all", "sync"), True),
    ("ufs", "repro.kernel.system:System", ("mkfs",), False),
    ("ufs", "repro.ufs.mount:UfsMount",
     ("namei", "create", "mkdir", "unlink", "rename", "readdir", "sync"), False),
    ("ufs", "repro.ufs.vnode:UfsVnode",
     ("rdwr", "getpage", "putpage", "fsync"), False),
    ("ufs", "repro.ufs.alloc:Allocator", ("alloc_*", "free_*"), False),
    ("ufs", "repro.ufs.metacache:MetaCache", ("bread", "bwrite", "flush"), False),
    ("ufs", "repro.ufs", ("fsck",), False),
    ("vm", "repro.vm.pagecache:PageCache",
     ("lookup", "allocate", "free", "destroy", "vnode_pages", "dirty_pages",
      "wait_for_memory"), False),
    ("core", "repro.core.readahead:ReadAheadState", ("observe",), False),
    ("core", "repro.core.writecluster:WriteClusterState", ("offer",), False),
    ("core", "repro.core.throttle:WriteThrottle",
     ("charge", "wait_ok", "credit"), False),
    ("disk", "repro.disk.driver:DiskDriver", ("strategy",), False),
    ("disk", "repro.disk.volume:MultiVolume", ("strategy",), False),
    ("disk", "repro.disk.disk:RotationalDisk", ("service",), False),
    ("disk", "repro.disk.store:DiskStore", ("read", "write"), False),
    ("disk", "repro.disk.wcache:VolatileWriteCache",
     ("write", "destage_head"), False),
    ("nfs", "repro.nfs.client:NfsVnode", ("rdwr", "fsync"), False),
    ("nfs", "repro.nfs.server:NfsServer", ("receive", "call"), False),
    ("nfs", "repro.nfs.net:Network", ("send_to_*",), False),
    ("integrity", "repro.integrity.checksum:IntegrityRegion",
     ("stamp_range", "verify_range"), False),
    ("obs", "repro.obs",
     ("attribution_table", "critical_paths", "verify_conservation",
      "verify_against_attribution", "chrome_trace_json", "folded_stacks"),
     False),
    ("obs", "repro.sim.trace:Tracer", ("to_jsonl",), False),
    ("obs", "repro.obs.metrics:MetricsRegistry", ("snapshot",), False),
    ("bench", "repro.bench.iobench:IObench", ("run",), True),
)


class _GenSlices:
    """A generator proxy that times each resume as one slice.

    ``yield from`` drives any iterator with ``send``/``throw``/``close``
    the way it drives a generator, so simulated processes cannot tell.
    """

    __slots__ = ("_gen", "_enter", "_leave")

    def __init__(self, gen, enter, leave):
        self._gen = gen
        self._enter = enter
        self._leave = leave

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._enter()
        try:
            return self._gen.send(None)
        finally:
            self._leave(frame)

    def send(self, value):
        frame = self._enter()
        try:
            return self._gen.send(value)
        finally:
            self._leave(frame)

    def throw(self, *exc):
        frame = self._enter()
        try:
            return self._gen.throw(*exc)
        finally:
            self._leave(frame)

    def close(self):
        frame = self._enter()
        try:
            return self._gen.close()
        finally:
            self._leave(frame)


class SliceTimer:
    """Per-entry-point call counts, self and inclusive host seconds, plus
    the first ``max_spans`` slices as spans for the Chrome trace (a 16 MB
    iobench makes millions of slices; the aggregates always cover all of
    them, ``dropped`` counts the spans not kept)."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        #: name -> [calls, self_s, inclusive_s], mutated in place.
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        #: (name, start, end, span id, parent span id, root span id)
        self.spans: list[tuple] = []
        #: Probe targets or patterns that matched nothing in this checkout.
        self.missing: list[str] = []
        self._dropped = [0]
        self._stack: list[list] = []
        self._ids = count(1)
        self._patched: list[tuple] = []

    @property
    def dropped(self) -> int:
        return self._dropped[0]

    # -- the slice stack ----------------------------------------------------
    def _slicer(self, name: str, layer: str, is_root: bool):
        """The (stat, enter, leave) triple for one entry point; closures
        over locals because they run millions of times per traced rep."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack, ids, spans = self._stack, self._ids, self.spans
        cap, dropped, clock = self.max_spans, self._dropped, perf_counter

        def enter():
            sid = next(ids)
            if stack:
                parent = stack[-1]
                # [start, nested_s, span id, root id, parent id]
                frame = [0.0, 0.0, sid, sid if is_root else parent[3], parent[2]]
            else:
                frame = [0.0, 0.0, sid, sid, 0]
            stack.append(frame)
            frame[0] = clock()
            return frame

        def leave(frame):
            end = clock()
            stack.pop()
            duration = end - frame[0]
            stat[1] += duration - frame[1]
            stat[2] += duration
            if stack:
                stack[-1][1] += duration
            if len(spans) < cap:
                spans.append((name, frame[0], end, frame[2], frame[4], frame[3]))
            else:
                dropped[0] += 1

        return stat, enter, leave

    def _wrap(self, fn, name: str, layer: str, is_root: bool):
        stat, enter, leave = self._slicer(name, layer, is_root)
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return _GenSlices(fn(*args, **kwargs), enter, leave)
        else:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                frame = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave(frame)
                if type(result) is GeneratorType:
                    return _GenSlices(result, enter, leave)
                return result
        return functools.wraps(fn)(wrapper)

    @contextmanager
    def section(self, name: str, layer: str):
        """Time perfbench's own glue around the entry points as a root
        slice, so every host second of the traced section has a layer."""
        stat, enter, leave = self._slicer(name, layer, True)
        stat[0] += 1
        frame = enter()
        try:
            yield
        finally:
            leave(frame)

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every probe that exists; note the ones that do not."""
        for layer, target, patterns, is_root in PROBES:
            modname, _, clsname = target.partition(":")
            try:
                owner = importlib.import_module(modname)
                if clsname:
                    owner = getattr(owner, clsname)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            functions = {n: v for n, v in vars(owner).items()
                         if isinstance(v, FunctionType)}
            for pattern in patterns:
                matched = fnmatch.filter(functions, pattern)
                if not matched:
                    self.missing.append(f"{target}.{pattern}")
                for attr in sorted(matched):
                    original = functions[attr]
                    label = f"{clsname}.{attr}" if clsname else attr
                    setattr(owner, attr,
                            self._wrap(original, label, layer, is_root))
                    self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------
    def reset(self) -> None:
        """Zero counts and drop spans, keeping the wrappers installed (the
        closures hold these very lists, so clear them in place)."""
        if self._stack:
            raise RuntimeError("reset() inside an open slice")
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self._dropped[0] = 0

    def inclusive_s(self, *names: str) -> float:
        """Host seconds inside the named entry points, nested ones included."""
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s": ..., "calls": ...}}`` for every layer."""
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, (calls, self_s, _inclusive_s) in self.stats.items():
            row = table[self.layer_of[name]]
            row["self_s"] += self_s
            row["calls"] += calls
        return table

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): one host thread, complete ("X") events in microseconds
        from the first span's start."""
        spans = sorted(self.spans, key=lambda s: (s[1], s[3]))
        base = spans[0][1] if spans else 0.0
        events = [
            {"name": name, "cat": self.layer_of[name], "ph": "X",
             "pid": 1, "tid": 1,
             "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": sid, "parent": parent, "root": root}}
            for name, start, end, sid, parent, root in spans
        ]
        return {
            "displayTimeUnit": "ms",
            "otherData": {"clock": "host perf_counter",
                          "spans_kept": len(spans),
                          "spans_dropped": self.dropped},
            "traceEvents": events,
        }
