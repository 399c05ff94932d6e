"""Tests for the page frame."""

import pytest

from repro.sim import Engine
from repro.vm import Page


def test_new_frame_is_anonymous_and_free():
    eng = Engine()
    page = Page(eng, frame=0, size=8192)
    assert page.free and not page.named and not page.valid
    assert bytes(page.data) == bytes(8192)  # made with its buffer, zeroed


def test_name_and_unname(engine, vnode):
    page = Page(engine, 0, 8192)
    page.name(vnode, 8192)
    assert page.named and page.offset == 8192
    with pytest.raises(RuntimeError):
        page.name(vnode, 0)
    page.unname()
    assert not page.named and page.offset == -1


def test_buffer_exists_from_first_name_and_is_kept(engine, vnode):
    page = Page(engine, 0, 8192)
    page.name(vnode, 0)
    assert bytes(page.data) == bytes(8192)  # reads as zeros until filled
    page.fill(b"abc")
    buffer = page.data
    page.unname()
    page.name(vnode, 8192)
    # A recycled frame keeps its buffer (and, as on the parent, its stale
    # bytes: whoever names it fills or zeroes it before marking it valid).
    assert page.data is buffer and bytes(page.data[:3]) == b"abc"


def test_name_requires_alignment(engine, vnode):
    page = Page(engine, 0, 8192)
    with pytest.raises(ValueError):
        page.name(vnode, 100)
    with pytest.raises(ValueError):
        page.name(vnode, -8192)


def test_lock_unlock(engine):
    page = Page(engine, 0, 8192)
    page.lock()
    assert page.locked
    with pytest.raises(RuntimeError):
        page.lock()
    page.unlock()
    assert not page.locked
    with pytest.raises(RuntimeError):
        page.unlock()


def test_lock_wait_serializes(engine):
    page = Page(engine, 0, 8192)
    order = []

    def holder():
        page.lock()
        order.append(("hold", engine.now))
        yield engine.timeout(5)
        page.unlock()

    def waiter():
        yield engine.timeout(1)
        yield from page.lock_wait()
        order.append(("acquired", engine.now))
        page.unlock()

    engine.process(holder())
    engine.process(waiter())
    engine.run()
    assert order == [("hold", 0), ("acquired", 5)]


def test_lock_wait_contention_only_one_winner_at_a_time(engine):
    page = Page(engine, 0, 8192)
    page.lock()
    acquired = []

    def waiter(tag):
        yield from page.lock_wait()
        acquired.append((tag, engine.now))
        yield engine.timeout(2)
        page.unlock()

    engine.process(waiter("a"))
    engine.process(waiter("b"))

    def releaser():
        yield engine.timeout(1)
        page.unlock()

    engine.process(releaser())
    engine.run()
    assert acquired == [("a", 1), ("b", 3)]


def test_wait_unlocked_does_not_take_lock(engine):
    page = Page(engine, 0, 8192)
    page.lock()

    def waiter():
        yield from page.wait_unlocked()
        return page.locked

    def releaser():
        yield engine.timeout(1)
        page.unlock()

    proc = engine.process(waiter())
    engine.process(releaser())
    engine.run()
    assert proc.value is False


def test_fill_pads_and_validates(engine, vnode):
    page = Page(engine, 0, 8192)
    page.name(vnode, 0)
    page.fill(b"abc")
    assert bytes(page.data[:3]) == b"abc"
    assert bytes(page.data[3:]) == bytes(8189)
    page.fill(b"x" * 8192)
    with pytest.raises(ValueError):
        page.fill(b"x" * 8193)
    page.zero()
    assert bytes(page.data) == bytes(8192)
