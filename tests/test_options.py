"""Options audit: a defaulted parameter exists only where it has a caller.

An option exists only where the program uses two values of it.  A
defaulted parameter that no call in ``src/repro`` or ``perfbench/`` sets,
by keyword or by position, is one value in use, and belongs in a named
constant.  Every such parameter that remains is pinned below under the
rule that keeps it, the way ``tests/bench/test_experiments.py`` pins the
paper values outside their band.  A new knob with no caller fails here by
name; so does a pinned one that gained a caller or went away.

The audit covers every public function or method, ``__init__`` included
(a call of the class is a call of it), and the fields of a dataclass
without one, whose name is defined once in ``src/repro``: a call is
matched to its definition by name alone.  ``**kwargs`` at a call sets
nothing the audit can see, so what a CLI flag or a sweep row reaches that
way is pinned under (b).  Result records are skipped: the run that
returns one fills its fields in, and nobody configures them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Dataclasses whose fields are a run's outputs, not settings.
RECORDS = {"CrashpointReport", "DumpArchive", "FsckReport", "IObenchResult",
           "NetCampaignStats", "S5CheckReport", "ScrubCampaignStats"}

#: The callerless defaulted parameters, ``{rule: {"module:Qual": "params"}}``.
PINNED = {
    "(b) a CLI flag or a sweep row reaches it through **": {
        "__main__.py:main": "argv",
        "bench/iobench.py:IObench": "telemetry_namespaces",
        "faults/crashpoints.py:CrashpointExplorer": "preset seed max_states",
        "faults/netcampaign.py:NetCampaign": "seeds seed",
        "integrity/campaign.py:ScrubCampaign": "seed",
        "obs/bench.py:run_bench": "configs file_mb random_ops seed",
    },
    "(c) a fault-injection schedule": {
        "faults/crashpoints.py:Preset": "torn_limit",
        "faults/netplan.py:NetFaultPlan":
            "reorder_delay spike_delay scheduled",
        "faults/plan.py:FaultPlan":
            "write_transient_p bad_sectors transient_at timeout_at "
            "timeout_hang die_at silent_write_p silent_write_at "
            "misdirect_shift bitrot_at",
    },
    "(d) a physical or cost model constant or a machine description": {
        "core/freebehind.py:FreeBehindPolicy": "headroom",
        "core/tuning.py:ClusterTuning":
            "freebehind_min_offset bmap_cache random_clustering "
            "hole_check_bypass inode_data_cache lazy_writeback",
        "cpu/costs.py:CostTable":
            "syscall segmap fault getpage_hit getpage_miss putpage bmap "
            "bmap_indirect cluster_per_page page_alloc page_free "
            "driver_strategy disksort_scan interrupt pagedaemon_scan "
            "pagedaemon_wakeup copy_bandwidth alloc_block alloc_frag "
            "dirscan_entry namei_component inode_update context_switch "
            "checksum_frag",
        "disk/disk.py:RotationalDisk":
            "bus_rate controller_overhead buffer_hit_overhead",
        "disk/disk.py:TrackBuffer": "lookahead_tracks",
        "disk/geometry.py:DiskGeometry":
            "rpm sector_size track_skew cyl_skew head_switch_time seek_min "
            "seek_sqrt seek_linear",
        "kernel/config.py:SystemConfig":
            "memory_bytes reserved_memory_bytes page_size costs "
            "metacache_blocks",
        "nfs/server.py:NfsServer": "per_rpc_cpu",
        "nfs/world.py:build_world": "latency",
        # tunefs(8) rewrites FsParams fields on a made file system.
        "ufs/tunefs.py:tunefs": "rotdelay_ms maxcontig minfree_pct",
        "vm/pageout.py:PageoutParams": "scan_batch breath hysteresis",
    },
    "(e) an argument of an interface only tests call: the value an event "
    "carries, a syscall's own argument, a gauge's starting value": {
        "kernel/syscalls.py:Proc.mmap": "offset writable",
        "obs/metrics.py:MetricsRegistry.gauge": "initial",
        "sim/engine.py:Engine.every": "daemon",
        "sim/engine.py:Engine.schedule": "arg",
        "sim/engine.py:Engine.timeout": "value",
        "sim/events.py:Process.interrupt": "cause",
        "sim/resources.py:Signal.fire": "value",
    },
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


def _is_dataclass(cls):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _params(fn, method):
    """``(name, positional, defaulted)`` per parameter, ``self`` dropped."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    return ([(p.arg, True, i >= first_default)
             for i, p in enumerate(positional) if i >= skip]
            + [(p.arg, False, d is not None)
               for p, d in zip(args.kwonlyargs, args.kw_defaults)])


def _fields(cls):
    """A dataclass's ``__init__`` parameters: its annotated fields, less
    ``ClassVar`` and ``field(init=False)``."""
    out = []
    for item in cls.body:
        if (not isinstance(item, ast.AnnAssign)
                or not isinstance(item.target, ast.Name)
                or "ClassVar" in ast.unparse(item.annotation)):
            continue
        value = item.value
        if (isinstance(value, ast.Call) and _name(value.func) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        out.append((item.target.id, True, value is not None))
    return out


def _signatures(tree):
    """``(call name, qualified name, params)`` per public definition."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, _params(node, False)
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
        for m in methods:
            if m.name == "__init__":
                yield node.name, node.name, _params(m, True)
            elif not m.name.startswith("_"):
                yield m.name, f"{node.name}.{m.name}", _params(m, True)
        if (_is_dataclass(node) and node.name not in RECORDS
                and all(m.name != "__init__" for m in methods)):
            yield node.name, node.name, _fields(node)


def _calls(tree):
    """``(call name, positional count or None if starred, keywords)``;
    ``cls(...)`` calls its class, ``super().__init__(...)`` the first base,
    ``partial(f, ...)`` ``f``."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func, args = child.func, child.args
                name = _name(func)
                if name == "cls" and cls is not None:
                    name = cls.name
                if (name == "__init__" and isinstance(func.value, ast.Call)
                        and _name(func.value.func) == "super"
                        and cls is not None and cls.bases):
                    name = _name(cls.bases[0])
                if name == "partial" and args:
                    name, args = _name(args[0]), args[1:]
                starred = any(isinstance(a, ast.Starred) for a in args)
                yield (name, None if starred else len(args),
                       {k.arg for k in child.keywords if k.arg})
            yield from visit(child, child if isinstance(child, ast.ClassDef)
                             else cls)
    yield from visit(tree, None)


def callerless(root: Path = ROOT) -> "set[str]":
    """``module:Qual(param)`` per defaulted parameter no call sets."""
    src = root / "src" / "repro"
    sigs, calls = [], []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.relative_to(src).as_posix()
        sigs += [(module, *s) for s in _signatures(tree)]
        calls += _calls(tree)
    for path in sorted((root / "perfbench").rglob("*.py")):
        calls += _calls(ast.parse(path.read_text()))
    defined = Counter(name for _, name, _, _ in sigs)
    by_name: dict = {}
    for name, npos, keywords in calls:
        by_name.setdefault(name, []).append((npos, keywords))
    # A dataclass's fields are also set through replace() / with_().
    replaced = {k for name in ("replace", "with_")
                for _, keywords in by_name.get(name, ()) for k in keywords}
    out = set()
    for module, name, qual, params in sigs:
        if defined[name] != 1:
            continue
        position = 0
        for param, positional, defaulted in params:
            index = position
            position += positional
            if not defaulted or param.startswith("_") or param in replaced:
                continue
            if not any(param in keywords
                       or positional and (npos is None or index < npos)
                       for npos, keywords in by_name.get(name, ())):
                out.add(f"{module}:{qual}({param})")
    return out


def test_every_defaulted_parameter_has_a_caller_or_a_rule():
    pinned = {f"{qual}({param})" for group in PINNED.values()
              for qual, params in group.items() for param in params.split()}
    found = callerless()
    new, gone = sorted(found - pinned), sorted(pinned - found)
    assert not new, ("a defaulted parameter no call sets: make it a named "
                     f"constant, or pin it under its rule: {new}")
    assert not gone, f"pinned but now set by a caller, or removed: {gone}"


def test_the_audit_sees_keywords_positions_and_class_calls():
    """A parameter set by keyword, by position or through ``cls(...)`` is
    not callerless; one set only through ``**`` is."""
    tree = ast.parse(
        "class K:\n"
        "    def __init__(self, a=1, b=2):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(5)\n"
        "def f(x, y=1, z=2, w=3):\n"
        "    pass\n"
        "f(0, 1)\n"
        "f(0, w=4, **{'z': 3})\n")
    calls = list(_calls(tree))
    assert ("K", 1, set()) in calls
    assert ("f", 1, {"w"}) in calls
    sigs = {qual: params for _, qual, params in _signatures(tree)}
    assert sigs["f"] == [("x", True, False), ("y", True, True),
                         ("z", True, True), ("w", True, True)]
    assert sigs["K"] == [("a", True, True), ("b", True, True)]
