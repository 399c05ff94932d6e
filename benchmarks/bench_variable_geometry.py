"""The variable-geometry argument against user-visible extents.

"Consider a variable geometry drive...  Such a drive may have different
values for the optimal extent size at different locations.  Trying to
write portable code that knows about extents is close to impossible."

On a zoned drive we place the same file in the outer, middle, and inner
zones and measure sequential read throughput and the time one 120 KB
cluster takes — the quantities a user picking a fixed extent size would
have to guess.  The file system's clustering (extent size chosen by bmap
at each call) adapts without anyone choosing anything.
"""

from repro.bench.report import Table
from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import FsParams, bmap
from repro.units import KB, MB

# Small enough to stay inside one cylinder group (no maxbpg spill out of
# the zone under test).
FILE_SIZE = 1 * MB


def zone_rate(zone_cyl):
    """Write + read a file whose blocks are forced near ``zone_cyl``."""
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.zoned_520mb(),
        fs_params=FsParams.clustered(120 * KB),
    )
    system = System.booted(cfg)
    mount = system.mount
    proc = Proc(system)
    sb = mount.sb
    # Aim the allocator at the cylinder group covering zone_cyl.
    spc_frags = cfg.geometry.heads * cfg.geometry.sectors_per_track_at(0) // 2
    target_frag = min(
        zone_cyl * spc_frags, sb.total_frags - sb.fpg
    )
    target_cg = sb.cg_of_frag(target_frag)

    def work():
        fd = yield from proc.creat("/zoned")
        vn = yield from mount.namei("/zoned")
        # Seed the first block in the target group; the allocator then
        # continues contiguously from there.
        addr = yield from mount.allocator.alloc_block(
            vn.inode, sb.cg_data_frag(target_cg))
        yield from bmap.set_pointer(mount, vn.inode, 0, addr)
        chunk = bytes(8 * KB)
        for _ in range(FILE_SIZE // len(chunk)):
            yield from proc.write(fd, chunk)
        yield from proc.fsync(fd)
        return vn

    vn = system.run(work())
    system.pagecache.vnode_drop_clean(vn)
    vn.inode.readahead.reset()

    def read_phase():
        fd = yield from proc.open("/zoned")
        while True:
            data = yield from proc.read(fd, 8 * KB)
            if not data:
                break

    t0 = system.now
    system.run(read_phase())
    rate = FILE_SIZE / (system.now - t0) / 1024
    # Where did the file actually land?
    addr = system.run(bmap.get_pointer(mount, vn.inode, 1))
    cyl, _, _ = cfg.geometry.to_chs(addr * 2)
    media = cfg.geometry.media_rate(cyl) / 1024
    cluster_ms = 120 * KB / (media * 1024) * 1000
    return rate, media, cluster_ms, cyl


def test_zones_have_no_single_correct_extent_size(once):
    def run():
        return {
            "outer": zone_rate(50),
            "middle": zone_rate(700),
            "inner": zone_rate(1300),
        }

    results = once(run)
    table = Table(
        title="Zoned drive: the same 120 KB cluster, three locations",
        columns=["seq read KB/s", "media KB/s", "cluster ms", "cylinder"],
    )
    for zone, (rate, media, cluster_ms, cyl) in results.items():
        table.add_row(zone, [round(rate), round(media),
                             round(cluster_ms, 1), cyl])
    print()
    print(table.render("{:>15}"))
    print("\nA fixed user-chosen extent size cannot be right at all three "
          "locations;\nbmap-chosen clusters adapt per call — the paper's "
          "case for keeping extents\ninvisible.")

    outer, inner = results["outer"][0], results["inner"][0]
    # The same tuning delivers whatever each zone can do: outer meaningfully
    # faster than inner, with clustering functional in both.
    assert outer > 1.2 * inner
    assert inner > 500  # still clustered, not collapsed
