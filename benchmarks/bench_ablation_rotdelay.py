"""Ablation: the rejected "file system tuning" alternative.

The paper considered just setting rotdelay to 0 (no clustering code) to
exploit track buffers, and rejected it: "The answer is write performance;
it suffers horribly when the file system has no rotational delay", because
the track buffer is write-through.  And drives without track buffers
"would suffer substantial performance penalties on both reads and writes".

Four cells: rotdelay {4ms, 0} x track buffer {on, off}, old (unclustered)
code everywhere.
"""

from repro.bench.report import Table
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams
from repro.units import KB, MB

FILE_SIZE = 8 * MB


def seq_rates(rotdelay_ms, track_buffer):
    cfg = SystemConfig.config_d().with_(
        fs_params=FsParams(rotdelay_ms=rotdelay_ms, maxcontig=1),
        track_buffer=track_buffer,
    )
    system = System.booted(cfg)
    proc = Proc(system)
    chunk = bytes(8 * KB)

    def write_phase():
        fd = yield from proc.creat("/f")
        for _ in range(FILE_SIZE // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)

    t0 = system.now
    system.run(write_phase())
    write_rate = FILE_SIZE / (system.now - t0) / 1024

    vn = system.run(system.mount.namei("/f"))
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    def read_phase():
        fd = yield from proc.open("/f")
        while True:
            data = yield from proc.read(fd, 8 * KB)
            if not data:
                break

    t0 = system.now
    system.run(read_phase())
    read_rate = FILE_SIZE / (system.now - t0) / 1024
    return read_rate, write_rate


def test_rotdelay_zero_without_clustering(once):
    def run():
        return {
            ("4ms", "buffer"): seq_rates(4.0, True),
            ("0", "buffer"): seq_rates(0.0, True),
            ("4ms", "no-buffer"): seq_rates(4.0, False),
            ("0", "no-buffer"): seq_rates(0.0, False),
        }

    results = once(run)
    table = Table(
        title="Old (unclustered) code: rotdelay x track buffer (KB/s)",
        columns=["seq read", "seq write"],
    )
    for (rot, buf), (r, w) in results.items():
        table.add_row(f"rotdelay={rot}, {buf}", [round(r), round(w)])
    print()
    print(table.render("{:>11}"))

    # With a track buffer, rotdelay=0 makes reads much faster...
    assert results[("0", "buffer")][0] > 1.4 * results[("4ms", "buffer")][0]
    # ...but writes suffer horribly (each block misses a full rotation).
    assert results[("0", "buffer")][1] < 0.55 * results[("4ms", "buffer")][1]
    # Without a track buffer, rotdelay=0 ruins reads too.
    assert results[("0", "no-buffer")][0] < 0.55 * results[("4ms", "no-buffer")][0]
