"""Read-ahead prediction state must die with the file's contents.

Pins the stale-state fix: ``nextr``/``trigger``/``nextrio`` survived
truncate and inode destruction, so a recycled inode started life
predicting reads for a file that no longer existed — read-ahead fired
past the new EOF and the first read of the new contents was misclassified
as non-sequential.
"""

from repro.kernel import Proc, System, SystemConfig
from repro.units import KB


def _booted():
    system = System.booted(SystemConfig.config_a())
    return system, Proc(system)


def _write(proc, path, nbytes, create=True):
    def gen():
        fd = yield from proc.open(path, create=create)
        yield from proc.write(fd, b"r" * nbytes)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    return gen()


def _truncate(proc, path):
    def gen():
        fd = yield from proc.creat(path)  # an existing file is emptied
        yield from proc.close(fd)

    return gen()


def _read_all(proc, path, record=8 * KB):
    def gen():
        fd = yield from proc.open(path)
        while True:
            data = yield from proc.read(fd, record)
            if not data:
                break
        yield from proc.close(fd)

    return gen()


def _inode(system, path):
    vn = system.run(system.mount.namei(path), name="lookup")
    return vn.inode


def _armed_inode(system, proc, path="/ra", nbytes=256 * KB):
    system.run(_write(proc, path, nbytes))
    system.run(_read_all(proc, path))
    ip = _inode(system, path)
    # The sequential read armed the predictor: next offset is EOF, and
    # (on a read-ahead config) the trigger points into the file.
    assert ip.readahead.nextr == nbytes
    assert ip.readahead.last_was_sequential
    return ip


def test_truncate_resets_readahead_state():
    system, proc = _booted()
    ip = _armed_inode(system, proc)
    system.run(_truncate(proc, "/ra"), name="truncate")
    assert ip.readahead.nextr == 0
    assert ip.readahead.trigger is None
    assert ip.readahead.nextrio == 0
    assert not ip.readahead.last_was_sequential


def test_unlink_resets_readahead_state():
    system, proc = _booted()
    ip = _armed_inode(system, proc)

    def unlink():
        yield from proc.unlink("/ra")

    system.run(unlink())
    assert ip.readahead.nextr == 0
    assert ip.readahead.trigger is None
    assert ip.readahead.nextrio == 0


def test_reread_after_truncate_is_sequential_from_offset_zero():
    """The behavioural half: after truncate + rewrite, the very first
    read must classify as sequential (nextr back at 0), re-enabling
    read-ahead for the new contents instead of chasing the old ones."""
    system, proc = _booted()
    ip = _armed_inode(system, proc, nbytes=256 * KB)
    system.run(_truncate(proc, "/ra"), name="truncate")
    system.run(_write(proc, "/ra", 64 * KB, create=False))
    # Writing moved nextr only via reads, not writes — still reset here.
    page = system.pagecache.page_size
    action = ip.readahead.observe(0, page, cached=True)
    assert action.sequential
    assert ip.readahead.nextr == page


def test_readahead_never_reads_past_new_eof():
    """After shrinking the file, a cold re-read issues no I/O beyond the
    new EOF: stale predictions would have prefetched old block offsets."""
    system, proc = _booted()
    _armed_inode(system, proc, nbytes=256 * KB)
    system.run(_truncate(proc, "/ra"), name="truncate")
    new_size = 64 * KB
    system.run(_write(proc, "/ra", new_size, create=False))
    system.sync()
    # Cold cache, as in IObench: the re-read must hit the disk.
    vn = system.run(system.mount.namei("/ra"), name="lookup")
    for page in system.pagecache.vnode_pages(vn):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)

    system.tracer.enabled = True
    system.run(_read_all(proc, "/ra"))
    system.tracer.enabled = False
    touched = [record for record in system.tracer.records
               if record.tag in ("readahead", "getpage_sync")]
    assert touched, "cold re-read issued no traced I/O"
    for record in touched:
        offset = record.fields["offset"]
        assert offset < new_size, (record.tag, offset)
