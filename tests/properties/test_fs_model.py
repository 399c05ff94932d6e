"""Property: the file system behaves like a dict of byte strings.

A random sequence of file operations (create, write at random offsets,
read back, truncate, unlink) is applied both to UFS and to a trivial
in-memory model; contents must agree at every read, and the on-disk state
must be fsck-clean at the end.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk import DiskGeometry
from repro.kernel import Proc, System, SystemConfig
from repro.ufs import fsck
from repro.units import KB


def small_system():
    cfg = SystemConfig.config_a().with_(
        geometry=DiskGeometry.uniform(cylinders=200, heads=4,
                                      sectors_per_track=32))
    return System.booted(cfg)


FILES = ["/a", "/b", "/c"]

op_strategy = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(FILES),
              st.integers(0, 40 * KB), st.integers(1, 24 * KB),
              st.integers(0, 255)),
    st.tuples(st.just("read"), st.sampled_from(FILES),
              st.integers(0, 48 * KB), st.integers(1, 24 * KB)),
    st.tuples(st.just("truncate"), st.sampled_from(FILES)),
    st.tuples(st.just("unlink"), st.sampled_from(FILES)),
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=25))
def test_ufs_matches_dict_model(ops):
    system = small_system()
    proc = Proc(system)
    model: dict[str, bytearray] = {}

    def apply_all():
        for op in ops:
            kind = op[0]
            path = op[1]
            if kind == "write":
                _, _, offset, length, fill = op
                data = bytes([fill]) * length
                if path not in model:
                    fd = yield from proc.creat(path)
                    model[path] = bytearray()
                else:
                    fd = yield from proc.open(path)
                yield from proc.pwrite(fd, data, offset)
                yield from proc.close(fd)
                m = model[path]
                if len(m) < offset:
                    m.extend(bytes(offset - len(m)))
                m[offset:offset + length] = data
            elif kind == "read":
                if path not in model:
                    continue
                _, _, offset, length = op
                fd = yield from proc.open(path)
                got = yield from proc.pread(fd, length, offset)
                yield from proc.close(fd)
                expect = bytes(model[path][offset:offset + length])
                assert got == expect, (
                    f"mismatch at {path}:{offset}+{length}"
                )
            elif kind == "truncate":
                if path not in model:
                    continue
                fd = yield from proc.creat(path)  # empties the file
                yield from proc.close(fd)
                model[path] = bytearray()
            elif kind == "unlink":
                if path not in model:
                    continue
                yield from proc.unlink(path)
                del model[path]
        # Final full read-back of every surviving file.
        for path, content in model.items():
            fd = yield from proc.open(path)
            got = yield from proc.pread(fd, len(content) + 1, 0)
            yield from proc.close(fd)
            assert got == bytes(content)

    system.run(apply_all())
    system.sync()
    report = fsck(system.store)
    assert report.clean, str(report)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_sizes_and_blocks_consistent(seed):
    """After random single-file growth, size/di_blocks/extent accounting
    all agree (and fsck cross-checks them on disk)."""
    import random

    rng = random.Random(seed)
    system = small_system()
    proc = Proc(system)
    total = 0

    def work():
        nonlocal total
        fd = yield from proc.creat("/grow")
        for _ in range(rng.randrange(1, 12)):
            chunk = rng.randrange(1, 20 * KB)
            yield from proc.write(fd, bytes(chunk))
            total += chunk
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    vn = system.run(system.mount.namei("/grow"))
    assert vn.size == total
    sb = system.mount.sb
    expected_frags = 0
    last = (total - 1) // sb.bsize if total else 0
    for lbn in range(last + 1):
        expected_frags += vn.inode.blksize(lbn) // sb.fsize
    # di_blocks also counts metadata (indirect) blocks, as on real UFS.
    if vn.inode.indirect:
        expected_frags += sb.frag
    if vn.inode.dindirect:
        expected_frags += sb.frag
    assert vn.inode.blocks == expected_frags
    system.sync()
    assert fsck(system.store).clean
