"""The mirror rung of the scrub repair ladder.

On a mirror, a corrupt fragment on one member has a second durable copy
on the other; the scrubber must climb past replica and cache to that
copy — accepting it only when its CRC matches the record — and restamp
the repaired bytes so both members converge.
"""

from repro.integrity.scrub import Scrubber
from repro.kernel import Proc, System, SystemConfig
from repro.units import KB

from tests.integrity.conftest import checksum_config


def _mirror_system():
    return System.booted(checksum_config(layout="mirror:2"))


def _write_file(system, payload):
    proc = Proc(system, name="w")

    def work():
        fd = yield from proc.creat("/f")
        yield from proc.write(fd, payload)
        yield from proc.fsync(fd)
        yield from proc.close(fd)

    system.run(work())
    system.sync()


def _drop_pages(system, path="/f"):
    vn = system.run(system.mount.namei(path), name="lookup")
    for page in list(system.pagecache.vnode_pages(vn)):
        if not page.locked and not page.dirty:
            system.pagecache.destroy(page)


def _find_payload_frag(system, marker, store=None):
    if store is None:
        store = system.volume.members[0].disk.store
    region = system.disk.integrity
    fs = region.frag_sectors
    for frag in region.stamped_frags():
        if store.read(frag * fs, fs)[:len(marker)] == marker:
            return frag, fs
    raise AssertionError("payload fragment not found")


def test_scrub_repairs_from_the_other_member():
    system = _mirror_system()
    _write_file(system, b"\xab" * (64 * KB))
    _drop_pages(system)  # no cache source: the mirror rung must fire
    frag, fs = _find_payload_frag(system, b"\xab\xab\xab\xab")
    system.volume.members[0].disk.store.write(frag * fs,
                                              b"\x5a" * (fs * 512))
    report = system.run(Scrubber(system).scrub_now(),
                        name="scrub")
    assert report.detected == 1
    assert report.repaired_from_mirror == 1
    assert report.unrepairable == 0
    assert report.as_dict()["details"][0]["source"] == "mirror"
    # Byte-exact repair: both members hold the original data again.
    for member in system.volume.members:
        assert member.disk.store.read(frag * fs, fs) == b"\xab" * (fs * 512)


def test_mirror_rung_rejects_a_corrupt_second_copy():
    """Both copies corrupt (differently): nothing matches the CRC, so the
    fragment is unrepairable — the rung must never 'repair' with wrong
    bytes just because another member had some."""
    system = _mirror_system()
    _write_file(system, b"\xcd" * (64 * KB))
    _drop_pages(system)
    frag, fs = _find_payload_frag(system, b"\xcd\xcd\xcd\xcd")
    system.volume.members[0].disk.store.write(frag * fs,
                                              b"\x11" * (fs * 512))
    system.volume.members[1].disk.store.write(frag * fs,
                                              b"\x22" * (fs * 512))
    report = system.run(Scrubber(system).scrub_now(),
                        name="scrub")
    assert report.detected == 1
    assert report.repaired_from_mirror == 0
    assert report.unrepairable == 1


def test_single_layout_has_no_mirror_rung():
    system = System.booted(checksum_config())
    _write_file(system, b"\xee" * (32 * KB))
    _drop_pages(system)
    frag, fs = _find_payload_frag(system, b"\xee\xee\xee\xee", system.store)
    system.store.write(frag * fs, b"\x33" * (fs * 512))
    report = system.run(Scrubber(system).scrub_now(),
                        name="scrub")
    assert report.repaired_from_mirror == 0
