"""Tests for StatSet, TimeWeighted, and the Tracer."""

import pytest

from repro.sim import Engine, StatSet, TimeWeighted, Tracer


def test_statset_default_zero():
    s = StatSet()
    assert s["missing"] == 0
    assert "missing" not in s


def test_statset_incr_and_snapshot():
    s = StatSet("disk")
    s.incr("reads")
    s.incr("reads")
    s.incr("bytes", 4096)
    assert s["reads"] == 2
    assert s["bytes"] == 4096
    assert s.as_dict() == {"bytes": 4096, "reads": 2}
    assert list(s) == ["bytes", "reads"]
    s.reset()
    assert s["reads"] == 0


def test_time_weighted_average():
    eng = Engine()
    tw = TimeWeighted(eng, initial=0)

    def proc():
        yield eng.timeout(2)
        tw.set(10)
        yield eng.timeout(2)
        tw.set(0)
        yield eng.timeout(4)

    eng.run_process(proc())
    # 0 for 2s, 10 for 2s, 0 for 4s => 20 / 8 = 2.5
    assert tw.average() == pytest.approx(2.5)
    assert tw.maximum == 10
    assert tw.minimum == 0


def test_time_weighted_add():
    eng = Engine()
    tw = TimeWeighted(eng, initial=5)
    tw.add(3)
    assert tw.value == 8
    tw.add(-10)
    assert tw.value == -2
    assert tw.minimum == -2


def test_tracer_disabled_by_default():
    eng = Engine()
    tr = Tracer(eng)
    tr.emit("getpage", lbn=0)
    assert tr.records == []


def test_tracer_records_time_and_fields():
    eng = Engine()
    tr = Tracer(eng, enabled=True)

    def proc():
        tr.emit("getpage", lbn=0)
        yield eng.timeout(0.004)
        tr.emit("readahead", lbn=1, cluster=3)

    eng.run_process(proc())
    assert [r.tag for r in tr.records] == ["getpage", "readahead"]
    assert tr.records[0].time == 0
    assert tr.records[1].time == pytest.approx(0.004)
    assert tr.records[1].lbn == 1
    assert tr.records[1].cluster == 3


def test_tracer_tag_filter_and_select():
    eng = Engine()
    tr = Tracer(eng, enabled=True)
    tr.emit("keep", n=1)
    tr.emit("drop", n=2)
    tr.emit("keep", n=3)
    assert [r.n for r in tr.select("keep")] == [1, 3]


def test_tracer_render_and_describe():
    eng = Engine()
    tr = Tracer(eng, enabled=True)
    tr.emit("io", kind="read", lbn=7)
    text = tr.render()
    assert "io" in text and "kind=read" in text and "lbn=7" in text
    tr.clear()
    assert tr.render() == ""


def test_trace_record_unknown_attr_raises():
    eng = Engine()
    tr = Tracer(eng, enabled=True)
    tr.emit("x", a=1)
    with pytest.raises(AttributeError):
        _ = tr.records[0].nope
