"""Tests for FaultPlan: determinism, the taxonomy, and the remap contract."""

import pytest

from repro.disk import Buf, BufOp
from repro.errors import DiskTimeoutError, MediaError, TransientDiskError
from repro.faults import FaultKind, FaultPlan
from repro.sim import Engine


def rbuf(eng, sector=8, nsectors=2):
    return Buf(eng, BufOp.READ, sector, nsectors)


def wbuf(eng, sector=8, nsectors=2):
    return Buf(eng, BufOp.WRITE, sector, nsectors, data=bytes(nsectors * 512))


def test_probabilities_validated():
    with pytest.raises(ValueError):
        FaultPlan(read_transient_p=1.5)
    with pytest.raises(ValueError):
        FaultPlan(write_transient_p=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(timeout_hang=-1.0)


def test_same_seed_same_decisions():
    eng = Engine()

    def history(plan):
        out = []
        for i in range(200):
            d = plan.decide(rbuf(eng, sector=i * 2), now=i * 0.01)
            out.append(None if d is None else d.kind)
        return out

    a = history(FaultPlan(seed=7, read_transient_p=0.05))
    b = history(FaultPlan(seed=7, read_transient_p=0.05))
    c = history(FaultPlan(seed=8, read_transient_p=0.05))
    assert a == b
    assert FaultKind.TRANSIENT in a  # the dice really rolled
    assert a != c  # and a different seed rolls differently


def test_transient_probability_respects_direction():
    eng = Engine()
    plan = FaultPlan(read_transient_p=1.0, write_transient_p=0.0)
    read = plan.decide(rbuf(eng), now=0.0)
    assert read is not None and read.kind is FaultKind.TRANSIENT
    assert isinstance(read.error, TransientDiskError)
    assert plan.decide(wbuf(eng), now=0.0) is None


def test_scheduled_faults_fire_once_in_order():
    eng = Engine()
    plan = FaultPlan(transient_at=[0.5, 0.2])
    assert plan.decide(rbuf(eng), now=0.1) is None  # before both triggers
    d1 = plan.decide(rbuf(eng), now=0.3)
    d2 = plan.decide(rbuf(eng), now=0.3)  # second trigger not yet due
    d3 = plan.decide(rbuf(eng), now=0.6)
    d4 = plan.decide(rbuf(eng), now=9.9)  # schedule exhausted
    assert d1 is not None and d1.kind is FaultKind.TRANSIENT
    assert d2 is None
    assert d3 is not None and d3.kind is FaultKind.TRANSIENT
    assert d4 is None


def test_timeout_decision_carries_hang():
    eng = Engine()
    plan = FaultPlan(timeout_at=[0.0], timeout_hang=0.25)
    d = plan.decide(rbuf(eng), now=0.0)
    assert d is not None and d.kind is FaultKind.TIMEOUT
    assert isinstance(d.error, DiskTimeoutError)
    assert d.hang == 0.25


def test_bad_sector_faults_until_remapped():
    eng = Engine()
    plan = FaultPlan(bad_sectors=[9, 40])
    d = plan.decide(rbuf(eng, sector=8, nsectors=4), now=0.0)
    assert d is not None and d.kind is FaultKind.MEDIA
    assert isinstance(d.error, MediaError) and d.error.sector == 9
    # A request not touching a bad sector passes.
    assert plan.decide(rbuf(eng, sector=20, nsectors=4), now=0.0) is None
    # Remap revectors to successive spare slots and clears the defect.
    assert plan.remap(9) == 0
    assert plan.remap(40) == 1
    assert plan.remap(9) is None  # already revectored
    assert plan.remap(123) is None  # never was bad
    assert plan.remapped == {9: 0, 40: 1}
    assert plan.decide(rbuf(eng, sector=8, nsectors=4), now=0.0) is None


def test_error_codes_are_errno_style():
    assert TransientDiskError("x").code == "EIO"
    assert MediaError("x", sector=3).code == "EIO"
    assert DiskTimeoutError("x").code == "ETIMEDOUT"
