"""The journal a volume's member disks share replays member by member.

Every member disk of a volume appends to one list, each event tagged with
its member's index.  Generated write / FUA / FLUSH sequences on a single
disk, a mirror and a stripe, each member with a volatile write cache:
replaying each member's events over its starting image must reproduce that
member's store exactly, and an event under index ``i`` must have come from
member ``i``'s disk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import Buf, BufOp, DiskGeometry
from repro.disk.disk import RotationalDisk
from repro.disk.volume import build_volume
from repro.faults.crashpoints import CrashpointExplorer
from repro.kernel.config import SystemConfig
from repro.sim.engine import Engine
from repro.units import KB

#: 512 sectors a member, a 4 KB cache: a few writes already destage.
SMALL = DiskGeometry.uniform(cylinders=8, heads=2, sectors_per_track=32)

OPS = st.lists(st.one_of(
    st.just(("flush",)),
    st.tuples(st.just("write"), st.integers(0, 1000), st.integers(1, 24),
              st.booleans())), min_size=1, max_size=10)


@settings(max_examples=30, deadline=None)
@given(layout=st.sampled_from(["single", "mirror:2", "stripe:2:chunk=4k"]),
       ops=OPS)
def test_shared_journal_replays_each_member(layout, ops):
    vol = build_volume(Engine(), SystemConfig(
        layout=layout, geometry=SMALL, write_cache=True,
        write_cache_bytes=4 * KB))
    engine = vol.members[0].disk.engine
    journal: list = []
    for member in vol.members:
        member.disk.journal = journal
    base = [member.store.clone() for member in vol.members]
    authors = []  # (disk, event) per append
    real = RotationalDisk._journal

    def spy(disk, *args, **kwargs):
        real(disk, *args, **kwargs)
        authors.append((disk, journal[-1]))

    total = vol.store.total_sectors
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RotationalDisk, "_journal", spy)
        for i, op in enumerate(ops):
            if op[0] == "flush":
                vol.device.issue_flush()
                continue
            _, start, count, fua = op
            start %= total - count
            vol.device.strategy(Buf(engine, BufOp.WRITE, start, count,
                                    data=bytes([i + 1]) * (count * 512),
                                    async_=True, fua=fua))
        vol.device.issue_flush()
        engine.run()

    assert [ev for _, ev in authors] == journal
    for disk, ev in authors:
        assert vol.members[ev.member].disk is disk
    replay = [store.clone() for store in base]
    pending: list[list] = [[] for _ in base]
    for ev in journal:
        CrashpointExplorer._apply_event(replay[ev.member],
                                        pending[ev.member], ev)
    assert not any(pending)  # the closing FLUSH drained every member
    assert [r.digest() for r in replay] == [
        member.store.digest() for member in vol.members]
