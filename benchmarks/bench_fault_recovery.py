"""Fault injection and recovery: the price of surviving a flaky disk.

Two experiments:

* A clustered sequential read of a 10 MB file over a disk whose reads fail
  transiently with p=1e-2 per service attempt.  The driver's bounded
  retries must deliver every byte correctly; the table shows what the
  retries cost in delivered bandwidth versus the fault-free run.
* The crash-consistency campaign: 50 seeded power cuts over a write/fsync
  workload.  fsck must detect and repair every torn-write inconsistency
  (clean second pass) and no fsynced byte may go missing or change.

Both are deterministic: the fault schedule comes from the plan's seed and
the cut instants from the campaign's seed.
"""

from repro.bench.report import Table
from repro.faults import CrashCampaign, FaultPlan
from repro.kernel import Proc, System, SystemConfig
from repro.units import KB, MB

FILE_SIZE = 10 * MB


def run_transient_read(plan):
    system = System.booted(SystemConfig.config_a(), fault_plan=plan)
    proc = Proc(system)
    chunk = bytes(range(256)) * 32  # 8 KB, non-trivial pattern

    def write_phase():
        fd = yield from proc.creat("/f")
        for _ in range(FILE_SIZE // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)

    system.run(write_phase())

    vn = system.run(system.mount.namei("/f"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    def read_phase():
        fd = yield from proc.open("/f")
        bad = 0
        while True:
            data = yield from proc.read(fd, 8 * KB)
            if not data:
                break
            if data != chunk[:len(data)]:
                bad += 1
        return bad

    t0 = system.now
    bad_chunks = system.run(read_phase())
    rate = FILE_SIZE / (system.now - t0) / 1024
    return rate, bad_chunks, system.driver.stats


def test_transient_read_recovery(once):
    def run():
        clean = run_transient_read(None)
        faulty = run_transient_read(FaultPlan(seed=42, read_transient_p=1e-2))
        return clean, faulty

    (clean_rate, clean_bad, _), (rate, bad, stats) = once(run)
    table = Table(
        title="Sequential 10 MB clustered read under transient faults",
        columns=["KB/s", "bad chunks", "retries", "exhausted"],
    )
    table.add_row("fault-free", [round(clean_rate), clean_bad, 0, 0])
    table.add_row("p=1e-2 transient", [
        round(rate), bad, int(stats["retries"]),
        int(stats["retries_exhausted"]),
    ])
    print()
    print(table.render("{:>12}"))

    assert clean_bad == 0 and bad == 0  # every byte correct, both runs
    assert stats["retries"] > 0  # faults really fired and were retried
    assert stats["retries_exhausted"] == 0  # bounded retries sufficed
    # Retries cost bandwidth but not much: backoff is milliseconds.
    assert rate > 0.5 * clean_rate


def test_crash_campaign(once):
    campaign = CrashCampaign(cuts=50, seed=0)
    stats = once(campaign.run)

    table = Table(
        title="Crash-consistency campaign (50 seeded power cuts)",
        columns=["count"],
    )
    for key, value in stats.as_dict().items():
        table.add_row(key, [value])
    print()
    print(table.render("{:>10}"))

    assert stats.cuts == 50
    assert stats.torn_writes > 0  # the cuts really tore writes
    assert stats.clean_after_repair == stats.cuts  # fsck fixed everything
    assert stats.silent_corruptions == 0  # fsync's promise held
