"""The simulated machine: engine + CPU + disk + VM + file system."""

from __future__ import annotations

from typing import Any, Generator

from repro.cpu import Cpu
from repro.disk.store import DiskStore
from repro.disk.volume import build_volume
from repro.kernel.config import SystemConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.invariants import Sanitizer
from repro.sim.request import RequestRegistry
from repro.sim.trace import Tracer
from repro.ufs.mkfs import mkfs_region
from repro.ufs.mount import UfsMount
from repro.ufs.params import FsParams
from repro.vfs.specfs import RawDiskVnode
from repro.vfs.vnode import Vfs
from repro.vm.pagecache import PageCache
from repro.vm.pageout import PageoutDaemon, PageoutParams


class System:
    """A booted machine: build, mkfs, mount, and run workloads."""

    def __init__(self, config: SystemConfig | None = None,
                 engine: Engine | None = None,
                 store: "DiskStore | list[DiskStore] | None" = None,
                 fault_plan=None):
        """``engine`` lets several machines (e.g. an NFS client and server)
        share one simulated world.  ``store`` boots the machine against
        existing on-disk bytes (a crash survivor, remounted) — one store
        for the single layout, one per member for multi-member layouts;
        ``fault_plan`` is a :class:`repro.faults.FaultPlan` injected into
        the disk (or a per-member list of plans)."""
        self.config = config if config is not None else SystemConfig()
        cfg = self.config
        self.engine = engine if engine is not None else Engine()
        self.cpu = Cpu(self.engine, cfg.costs)
        self.tracer = Tracer(self.engine)
        #: One registry per machine: every syscall-level I/O request is
        #: opened here, so benchmarks can report per-kind latencies.
        self.requests = RequestRegistry(self.engine, self.tracer)
        self.fault_plan = fault_plan
        #: The block-device stack: a SingleVolume facade by default
        #: (byte-identical to the classic one-disk machine), or a
        #: concat/stripe/mirror volume per ``cfg.layout``.  ``store``,
        #: ``disk``, ``driver``, and ``write_cache`` below are the
        #: volume's kernel-facing views of it.
        self.volume = build_volume(self.engine, cfg, cpu=self.cpu,
                                   store=store, fault_plan=fault_plan)
        self.store = self.volume.store
        self.disk = self.volume.disk
        self.driver = self.volume.device
        self.write_cache = self.disk.write_cache
        reserved_pages = cfg.reserved_memory_bytes // cfg.page_size
        self.pagecache = PageCache(self.engine, cfg.memory_bytes,
                                   page_size=cfg.page_size,
                                   reserved_pages=reserved_pages)
        self.pageout = PageoutDaemon(
            self.engine, self.pagecache, self.cpu,
            PageoutParams.for_memory(self.pagecache.total_pages),
            registry=self.requests,
        )
        #: The one mounted file system: UFS, S5FS or an NFS client mount.
        self.mount: Vfs | None = None
        self.raw_disk = RawDiskVnode(self.engine, self.driver, self.cpu)
        #: The unified metrics registry: every layer's counters, gauges,
        #: and histograms behind one namespaced snapshot()/to_json() view.
        self.metrics = MetricsRegistry(self.engine)
        self.metrics.register("cpu", self.cpu.ledger)
        self.requests.register_metrics(self.metrics)
        self.volume.register_metrics(self.metrics)
        self.pagecache.register_metrics(self.metrics)
        #: Background daemons started on this machine (scrub today); a
        #: remount over the same stores neutralizes them via the stores'
        #: attach epochs, and shutdown_daemons() stops them explicitly.
        self.daemons: list = []
        for member in self.volume.members:
            member.store.attach_epoch += 1
        #: The cross-layer invariant sanitizer ("simsan"), on or off from
        #: birth: a ``sanitizing`` scope, else REPRO_SANITIZE, decides.
        self.sanitizer = Sanitizer(self)
        # A remounted store may already carry an integrity region — find
        # it, so verification starts with the first read (mount itself).
        self.disk.attach_integrity()

    # -- setup -------------------------------------------------------------
    def mkfs(self, params: FsParams | None = None):
        """Build the file system (offline; no simulated time)."""
        params = params if params is not None else self.config.fs_params
        if self.config.checksums and not params.checksums:
            from dataclasses import replace

            params = replace(params, checksums=True)
        sb, region = mkfs_region(self.store, self.volume.geometry, params)
        self.disk.attach_integrity(region)
        return sb

    def mount_fs(self) -> Generator[Any, Any, UfsMount]:
        """Mount the UFS (reads the root inode)."""
        mount = self.mount = UfsMount(
            self.engine, self.cpu, self.driver, self.pagecache,
            tuning=self.config.tuning, tracer=self.tracer,
            metacache_blocks=self.config.metacache_blocks,
            ordered_metadata=self.config.ordered_metadata,
        )
        yield from mount.activate()
        if "ufs" not in self.metrics:
            mount.register_metrics(self.metrics)
        return mount

    @classmethod
    def booted(cls, config: SystemConfig | None = None,
               fault_plan=None) -> "System":
        """Build + mkfs + mount in one step (runs the engine briefly)."""
        system = cls(config, fault_plan=fault_plan)
        system.mkfs()
        system.run(system.mount_fs())
        return system

    @classmethod
    def remounted(cls, store: "DiskStore | list[DiskStore]",
                  config: SystemConfig | None = None) -> "System":
        """Boot a fresh machine against existing on-disk bytes (no mkfs) —
        how a crash-consistency campaign comes back up after a power cut."""
        system = cls(config, store=store)
        system.run(system.mount_fs())
        return system

    # -- running workloads -----------------------------------------------------
    def run(self, gen: Generator, name: str = "workload") -> Any:
        """Run one generator to completion on the engine.

        A successful run drains the engine to idle — a quiesce point — so
        the sanitizer's full invariant suite runs here.  A run that raises
        leaves the machine in a legitimately inconsistent state (crashed
        workload, injected fault), so no checkpoint fires on that path.
        """
        result = self.engine.run_process(gen, name=name)
        self.sanitizer.checkpoint("run_idle", idle=True)
        return result

    def run_all(self, gens: "list[Generator]") -> list[Any]:
        """Run several generators concurrently; returns their results."""
        procs = [self.engine.process(g, name=f"workload{i}")
                 for i, g in enumerate(gens)]
        self.engine.run()
        missing = [p for p in procs if not p.triggered]
        if missing:
            raise RuntimeError(f"{len(missing)} workload(s) deadlocked")
        self.sanitizer.checkpoint("run_idle", idle=True)
        return [p.value for p in procs]

    @property
    def now(self) -> float:
        return self.engine.now

    def sync(self) -> None:
        """Flush everything (runs the engine)."""
        if self.mount is not None:
            self.run(self.mount.sync(), name="sync")

    def start_scrub(self, interval: float = 5.0):
        """Start the paced background scrub daemon (requires an attached
        integrity region); returns it."""
        from repro.integrity.scrub import ScrubDaemon

        daemon = ScrubDaemon(self, interval=interval)
        daemon.start()
        self.daemons.append(daemon)
        # replace=True: a restarted daemon takes over the namespace.
        self.metrics.register("scrub", daemon.stats, replace=True)
        return daemon

    def start_telemetry(self, interval: float = 0.010,
                        namespaces: "list[str] | None" = None):
        """Start a :class:`~repro.obs.timeseries.TelemetryRecorder`
        sampling the metrics registry every ``interval`` simulated
        seconds (``namespaces=None`` samples everything registered so
        far); returns the recorder, also tracked in ``daemons``."""
        from repro.obs.timeseries import TelemetryRecorder

        recorder = TelemetryRecorder(self, interval=interval,
                                     namespaces=namespaces)
        recorder.start()
        self.daemons.append(recorder)
        return recorder

    def shutdown_daemons(self) -> None:
        """Stop every background daemon started on this machine.  Tests
        only: ``tests/kernel/test_remount_reset.py`` stops a scrub daemon
        with it."""
        for daemon in self.daemons:
            daemon.stop()
