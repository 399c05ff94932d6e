"""Integration tests for the fault subsystem: the acceptance criteria.

* A transient-fault plan (p=1e-3 per attempt) under a 10 MB sequential
  clustered read: every byte arrives correctly via driver retries, with no
  deadlock and no error surfacing to the application.
* The crash campaign: every seeded power cut is repaired by fsck (clean
  second pass), no fsynced byte is ever lost or changed, and the same seed
  produces byte-identical statistics.
"""

from repro.faults import CrashCampaign, FaultPlan
from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB


def test_transient_plan_clustered_read_completes_correctly():
    file_size = 10 * MB
    plan = FaultPlan(seed=6, read_transient_p=1e-3)
    system = System.booted(SystemConfig.config_a(), fault_plan=plan)
    proc = Proc(system)
    chunk = bytes(range(256)) * 32  # 8 KB

    def write_phase():
        fd = yield from proc.creat("/f")
        for _ in range(file_size // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)

    system.run(write_phase())
    vn = system.run(system.mount.namei("/f"))
    for page in system.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)
    vn.inode.readahead.reset()

    def read_phase():
        fd = yield from proc.open("/f")
        total = bad = 0
        while True:
            data = yield from proc.read(fd, 8 * KB)
            if not data:
                break
            total += len(data)
            bad += data != chunk[:len(data)]
        return total, bad

    total, bad = system.run(read_phase())  # completing at all = no deadlock
    assert total == file_size
    assert bad == 0
    assert system.driver.stats["retries"] >= 1  # a fault really fired
    assert system.driver.stats["retries_exhausted"] == 0
    assert system.driver.stats["errors"] == 0


def test_campaign_repairs_every_cut_and_loses_no_fsynced_byte():
    stats = CrashCampaign(cuts=8, seed=1).run()
    assert stats.cuts == 8
    assert stats.faults_injected == 8  # every run really lost power
    assert stats.cuts_with_damage > 0  # the sweep found interesting cuts
    assert stats.clean_after_repair == stats.cuts
    assert stats.silent_corruptions == 0


def test_campaign_is_deterministic_per_seed():
    a = CrashCampaign(cuts=5, seed=3).run()
    b = CrashCampaign(cuts=5, seed=3).run()
    c = CrashCampaign(cuts=5, seed=4).run()
    assert a.as_dict() == b.as_dict()  # byte-identical stats, same seed
    assert a.as_dict() != c.as_dict()  # and the seed genuinely matters

