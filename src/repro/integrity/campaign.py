"""Scrub campaigns: seeded latent-corruption sweeps.

The campaign answers the integrity layer's accountability question the
way the crash campaign answers fsck's: inject a *known*, seeded set of
silent corruptions into a live file system, run one scrub pass, and make
the report answer for every single one — each outcome an ``exact(0)``
cell of the ``scrubcampaign`` experiment row: every corruption is
detected; one with a clean source (the region's replicas for superblock
and cg-header fragments, the page cache for a cached file's data) is
repaired from it to the original bytes; one without surfaces as EIO with
precise partial-read semantics (the bytes before the bad fragment, nothing
after, ``proc.errno == "EIO"``); and rewriting it rehabilitates: a second
pass detects nothing, fsck is clean, the deep sanitizer sweep passes.

Determinism: all targets and corruption payloads come from
``random.Random(seed)``, and the simulation is deterministic, so the
same seed yields a byte-identical report (and digest) on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ReproError
from repro.faults.harness import Campaign
from repro.faults.ledger import Ledger, check
from repro.faults.plan import CORRUPT_KINDS, corrupt_frag
from repro.integrity.scrub import Scrubber
from repro.kernel.program import Program, run, step
from repro.kernel.syscalls import Proc
from repro.kernel.system import System
from repro.sim.engine import SimulationError
from repro.sim.invariants import SanitizerError
from repro.ufs.fsck import fsck
from repro.units import KB

#: Corruption kinds used on targets that must repair from the page cache
#: (``misdirect`` forges the record's address field, which still repairs,
#: but keeping it on the latent side keeps expected outcomes readable).
_CACHED_KINDS = ("bitrot", "zero", "torn")


@dataclass
class ScrubCampaignStats:
    """Aggregated results; byte-identical for a given seed."""

    injected: int = 0
    detected: int = 0
    repaired: int = 0
    repaired_from_cache: int = 0
    repaired_from_replica: int = 0
    unrepairable: int = 0
    # -- invariants: the scrubcampaign row's exact(0) cells ------------------
    detect_misses: int = 0
    outcome_mismatches: int = 0
    verify_failures: int = 0
    eio_misses: int = 0
    residual_detected: int = 0
    fsck_clean: bool = False


class ScrubCampaign(Campaign):
    """Inject seeded silent corruption, scrub, and audit every outcome."""

    name = "scrubcampaign"

    #: Files the workload builds (half are read back, half are not), and
    #: the size of each.
    NFILES = 8
    FILE_BYTES = 24 * KB

    def __init__(self, seed: int = 0):
        super().__init__(ScrubCampaignStats(), seed, checksums=True)

    # -- workload ----------------------------------------------------------
    def _payload(self, i: int) -> bytes:
        return bytes((i * 41 + j * 13) % 251 + 1
                     for j in range(self.FILE_BYTES))

    def _path(self, i: int) -> str:
        return f"/data/f{i}"

    def file_program(self, i: int, opener: str = "creat") -> Program:
        """File ``i``'s whole payload written through an fd ``opener``
        returns, then fsynced."""
        path = self._path(i)
        return ((opener, path), ("write", path, self._payload(i)),
                ("fsync", path), ("close", path))

    # -- the sweep ---------------------------------------------------------
    def run(self) -> ScrubCampaignStats:
        cfg = self.config
        half = self.NFILES // 2
        bsize = cfg.fs_params.bsize
        nblocks = self.FILE_BYTES // bsize

        # Phase 1: build the population and push it durable.
        builder = System.booted(cfg)
        ledger = Ledger()
        build = (("mkdir", "/data"), *(op for i in range(self.NFILES)
                                         for op in self.file_program(i)))
        builder.run(run(Proc(builder, ledger=ledger), build),
                    name="scrub-build")
        builder.sync()
        store = builder.store

        # Phase 2: a fresh machine over the same bytes.  Reading the first
        # half populates its page cache — the repair source for those files.
        survivor = System.remounted(store, cfg)
        region = survivor.disk.integrity
        assert region is not None
        sb = survivor.mount.sb
        fpb = sb.frags_per_block
        fs = region.frag_sectors
        proc = Proc(survivor)
        fds: dict[str, int] = {}
        for i in range(half):
            path = self._path(i)
            fds[path], data = survivor.run(
                run(proc, (("open", path), ("read", path, self.FILE_BYTES))),
                name="scrub-warm")
            assert data == self._payload(i), "pre-injection read mismatch"

        # Learn every file's block addresses up front: once injection
        # starts, any engine run would checkpoint the sanitizer against a
        # deliberately-corrupted disk.
        direct: "dict[int, list[int]]" = {}
        for i in range(self.NFILES):
            vn = survivor.run(survivor.mount.namei(self._path(i)),
                              name="scrub-stat")
            direct[i] = list(vn.inode.direct)

        # Phase 3: seeded injection, offline (between engine runs), like
        # rot developing while the machine runs.
        rng = random.Random(self.seed)
        used: set[int] = set()
        injected: "list[dict]" = []

        def _pick(direct: "list[int]", lbn: "int | None"
                  ) -> "tuple[int, int, int]":
            while True:
                blk = rng.randrange(nblocks) if lbn is None else lbn
                off = rng.randrange(fpb)
                frag = direct[blk] + off
                if frag not in used:
                    used.add(frag)
                    return blk, off, frag

        for i in range(half):
            lbn, off, frag = _pick(direct[i], None)
            kind = _CACHED_KINDS[i % len(_CACHED_KINDS)]
            corrupt_frag(store, region, frag, kind, rng)
            injected.append({"target": self._path(i), "file": i, "lbn": lbn,
                             "off": off, "frag": frag, "kind": kind,
                             "expect": "cache"})
        for frag, target in ((sb.frags_per_block, "superblock"),
                             (sb.cg_header_frag(1), "cg-header-1")):
            used.add(frag)
            corrupt_frag(store, region, frag, "bitrot", rng)
            injected.append({"target": target, "file": None, "lbn": None,
                             "off": None, "frag": frag, "kind": "bitrot",
                             "expect": "replica"})
        for j, i in enumerate(range(half, self.NFILES)):
            lbn = 0 if j % 2 == 0 else 1  # even: EIO at once; odd: partial
            lbn, off, frag = _pick(direct[i], lbn)
            kind = CORRUPT_KINDS[j % len(CORRUPT_KINDS)]
            corrupt_frag(store, region, frag, kind, rng)
            injected.append({"target": self._path(i), "file": i, "lbn": lbn,
                             "off": off, "frag": frag, "kind": kind,
                             "expect": "unrepairable"})

        s = self.stats
        s.injected = len(injected)

        # Phase 4: one full scrub pass over every stamped fragment.
        scrubber = Scrubber(survivor)
        report = survivor.run(scrubber.scrub_now(), name="scrub-pass")
        s.detected = report.detected
        s.repaired = report.repaired
        s.repaired_from_cache = report.repaired_from_cache
        s.repaired_from_replica = report.repaired_from_replica
        s.unrepairable = report.unrepairable

        outcomes = {d["frag"]: d for d in report.details}
        for inj in injected:
            got = outcomes.get(inj["frag"])
            if got is None:
                s.detect_misses += 1
                inj["outcome"] = "undetected"
                continue
            inj["reason"] = got["reason"]
            if got["outcome"] == "repaired":
                inj["outcome"] = f"repaired:{got['source']}"
                if inj["expect"] != got["source"]:
                    s.outcome_mismatches += 1
            else:
                inj["outcome"] = "unrepairable"
                if inj["expect"] != "unrepairable":
                    s.outcome_mismatches += 1

        # Phase 5a: repaired data fragments must hold the original bytes.
        for inj in injected:
            if inj["expect"] != "cache" or not inj["outcome"].startswith("rep"):
                continue
            payload = self._payload(inj["file"])
            lo = inj["lbn"] * bsize + inj["off"] * region.fsize
            expect = payload[lo:lo + region.fsize]
            if store.read(inj["frag"] * fs, fs) != expect:
                s.verify_failures += 1
        # ... and the cached files keep the build's promises, read back
        # through the stack.
        s.verify_failures += len(check(
            proc, ledger, paths={self._path(i) for i in range(half)}))
        for path in fds:
            survivor.run(step(proc, fds, ("close", path)), name="scrub-verify")

        # Phase 5b: unrepairable files fail with EIO, keeping every byte
        # before the bad fragment and surfacing nothing at/after it.
        for inj in injected:
            if inj["expect"] != "unrepairable":
                continue
            inj["eio_ok"] = self._check_eio(survivor, inj, bsize)
            if not inj["eio_ok"]:
                s.eio_misses += 1

        # Phase 6: rehabilitation — rewriting a whole file (full aligned
        # blocks: no read-modify-write) restamps its fragments and clears
        # the BAD marks; a second pass must come up empty.
        rehab = Proc(survivor)
        for inj in injected:
            if inj["expect"] != "unrepairable":
                continue
            survivor.run(run(rehab, self.file_program(inj["file"], "open")),
                         name="scrub-rehab")
        second = Scrubber(survivor)
        report2 = survivor.run(second.scrub_now(), name="scrub-pass-2")
        s.residual_detected = report2.detected

        survivor.sync()
        s.fsck_clean = bool(fsck(store).clean)
        # The machine is quiesced and every fragment accounted for: the
        # deep sweep (fsck walkers + integrity table audit) must pass.
        survivor.sanitizer.checkpoint("scrubcampaign_final", idle=True,
                                      deep=True)

        self.records = injected
        return s

    def _check_eio(self, survivor: System, inj: dict, bsize: int) -> bool:
        """Block-at-a-time reads: every block before the corrupt one is
        returned intact, the corrupt one fails with EIO."""
        proc = Proc(survivor, name="eio-check")
        path, bad = self._path(inj["file"]), inj["lbn"]
        fds: dict[str, int] = {}
        try:
            survivor.run(step(proc, fds, ("open", path)), name="scrub-eio")
        except (ReproError, SimulationError):
            return False
        got = []
        for _ in range(bad + 1):
            try:
                got.append(survivor.run(step(proc, fds, ("read", path, bsize)),
                                        name="scrub-eio"))
            except SanitizerError:
                raise
            except (ReproError, SimulationError):
                got.append(None)
        payload = self._payload(inj["file"])
        # Every clean prefix block intact; the bad block fails, precisely.
        ok = got == [payload[lbn * bsize:(lbn + 1) * bsize]
                     for lbn in range(bad)] + [None] and proc.errno == "EIO"
        survivor.run(step(proc, fds, ("close", path)), name="scrub-eio")
        return ok
