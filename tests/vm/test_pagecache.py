"""Tests for the unified page cache: lookup, reclaim, allocate, free."""

import pytest

from repro.units import KB
from repro.vm import PageCache


def fill_page(cache, vnode, offset, value=b"\xaa"):
    page = cache.allocate(vnode, offset)
    assert page is not None
    page.fill(value * cache.page_size)
    page.valid = True
    page.unlock()
    return page


def test_construction_validation(engine):
    with pytest.raises(ValueError):
        PageCache(engine, memory_bytes=0)
    with pytest.raises(ValueError):
        PageCache(engine, memory_bytes=100, page_size=64)  # not a multiple
    with pytest.raises(ValueError):
        PageCache(engine, memory_bytes=64 * 8 * KB, page_size=8 * KB,
                  reserved_pages=64)


def test_reserved_pages_shrink_pool(engine):
    cache = PageCache(engine, memory_bytes=64 * 8 * KB, page_size=8 * KB,
                      reserved_pages=16)
    assert cache.total_pages == 48
    assert cache.freemem == 48


def test_frames_are_backed_on_first_name_only(cache, vnode):
    assert cache.frames_backed == 0
    assert all(page.data is None for page in cache.frames)
    first = fill_page(cache, vnode, 0)
    fill_page(cache, vnode, 8 * KB)
    assert cache.frames_backed == 2
    # Recycling a frame reuses its buffer: destroy puts frame 0 behind the
    # 62 never-used frames, so 62 more allocations come before it returns.
    cache.destroy(first)
    for index in range(2, 64):
        fill_page(cache, vnode, index * 8 * KB)
    assert cache.frames_backed == 64
    assert fill_page(cache, vnode, 64 * 8 * KB) is first
    assert cache.frames_backed == 64


def test_lookup_miss_returns_none(cache, vnode):
    assert cache.lookup(vnode, 0) is None
    assert cache.stats["misses"] == 1


def test_allocate_and_lookup_hit(cache, vnode):
    page = cache.allocate(vnode, 8192)
    assert page.locked and page.vnode is vnode and page.offset == 8192
    page.unlock()
    assert cache.lookup(vnode, 8192) is page
    assert cache.stats["hits"] == 1
    assert cache.freemem == cache.total_pages - 1


def test_allocate_existing_page_rejected(cache, vnode):
    page = cache.allocate(vnode, 0)
    page.unlock()
    with pytest.raises(RuntimeError):
        cache.allocate(vnode, 0)


def test_free_and_reclaim_preserves_data(cache, vnode):
    page = fill_page(cache, vnode, 0, b"\x42")
    cache.free(page)
    assert cache.freemem == cache.total_pages
    found = cache.lookup(vnode, 0)
    assert found is page
    assert not found.free
    assert bytes(found.data) == b"\x42" * cache.page_size
    assert cache.stats["reclaims"] == 1


def test_free_validation(cache, vnode):
    page = cache.allocate(vnode, 0)
    with pytest.raises(RuntimeError):
        cache.free(page)  # locked
    page.unlock()
    page.dirty = True
    with pytest.raises(RuntimeError):
        cache.free(page)  # dirty
    page.dirty = False
    cache.free(page)
    with pytest.raises(RuntimeError):
        cache.free(page)  # already free


def test_identity_steal_when_pool_exhausted(cache, vnode):
    total = cache.total_pages
    pages = [fill_page(cache, vnode, i * 8192) for i in range(total)]
    assert cache.freemem == 0
    assert cache.allocate(vnode, total * 8192) is None  # no memory
    cache.free(pages[0])
    newer = cache.allocate(vnode, total * 8192)
    assert newer is pages[0]
    assert cache.stats["identity_steals"] == 1
    # The stolen identity is gone from the cache.
    assert cache.lookup(vnode, 0) is None
    newer.unlock()


def test_free_front_is_reused_first(cache, vnode):
    # Exhaust the pool first so the free list is empty...
    total = cache.total_pages
    pages = [fill_page(cache, vnode, i * 8192) for i in range(total)]
    a, b = pages[0], pages[1]
    # ...then free a normally (tail) and b to the front (free-behind victim).
    cache.free(a)
    cache.free(b, front=True)
    page = cache.allocate(vnode, total * 8192)
    assert page is b  # the front-freed page went first
    page.unlock()


def test_wait_for_memory_wakes_on_free(cache, vnode):
    total = cache.total_pages
    pages = [fill_page(cache, vnode, i * 8192) for i in range(total)]
    woken = []

    def claimant():
        page = cache.allocate(vnode, total * 8192)
        assert page is None
        yield from cache.wait_for_memory()
        woken.append(cache.engine.now)

    def freer():
        yield cache.engine.timeout(3)
        cache.free(pages[5])

    cache.engine.process(claimant())
    cache.engine.process(freer())
    cache.engine.run()
    assert woken == [3]
    assert cache.stats["memory_waits"] == 1


def test_destroy_removes_identity(cache, vnode):
    page = fill_page(cache, vnode, 0)
    cache.destroy(page)
    assert cache.lookup(vnode, 0) is None
    assert page.free and not page.named
    assert cache.freemem == cache.total_pages


def test_destroy_free_page_keeps_single_freelist_entry(cache, vnode):
    page = fill_page(cache, vnode, 0)
    cache.free(page)
    cache.destroy(page)
    assert cache.freemem == cache.total_pages
    got = cache.allocate(vnode, 8192)
    assert got is not None
    got.unlock()


def test_vnode_pages_sorted_and_invalidate(cache, vnode):
    for off in (3 * 8192, 0, 8192):
        fill_page(cache, vnode, off)
    pages = cache.vnode_pages(vnode)
    assert [p.offset for p in pages] == [0, 8192, 3 * 8192]
    assert cache.vnode_invalidate(vnode) == 3
    assert cache.vnode_pages(vnode) == []
    assert not any(p.named for p in cache.frames)


def test_vnode_drop_clean_keeps_dirty_and_locked_pages(cache, vnode):
    clean, dirty, busy = (fill_page(cache, vnode, off)
                          for off in (0, 8192, 2 * 8192))
    dirty.dirty = True
    busy.lock()
    assert cache.vnode_drop_clean(vnode) == 1
    assert cache.vnode_pages(vnode) == [dirty, busy]
    assert cache.lookup(vnode, clean.offset) is None


def test_dirty_pages_listing(cache, vnode):
    a = fill_page(cache, vnode, 0)
    b = fill_page(cache, vnode, 8192)
    b.dirty = True
    assert cache.dirty_pages() == [b]
    assert cache.dirty_pages(vnode) == [b]
    a.dirty = True
    assert cache.dirty_pages(vnode) == [a, b]


def test_low_water_fires_low_memory(engine, vnode):
    cache = PageCache(engine, memory_bytes=8 * 8 * KB, page_size=8 * KB)
    cache.low_water = 6
    fired = []

    def watcher():
        yield cache.low_memory.wait()
        fired.append(engine.now)

    def allocator():
        yield engine.timeout(1)  # let the watcher register first
        for i in range(4):
            page = cache.allocate(vnode, i * 8192)
            page.unlock()

    engine.process(watcher())
    engine.process(allocator())
    engine.run()
    assert fired == [1]


def test_vnode_range_probes_and_filters(cache, vnode):
    psize = cache.page_size
    pages = {slot: fill_page(cache, vnode, slot * psize) for slot in (0, 1, 3, 9)}
    # Narrow window: probed offset by offset.
    assert cache.vnode_range(vnode, psize, 4 * psize) == [pages[1], pages[3]]
    # Window wider than the vnode's page count: filtered from the index.
    assert cache.vnode_range(vnode, psize, 64 * psize) == [
        pages[1], pages[3], pages[9]]
    # An unaligned start rounds up to the next page; an empty window is empty.
    assert cache.vnode_range(vnode, 1, 2 * psize) == [pages[1]]
    assert cache.vnode_range(vnode, 5 * psize, 5 * psize) == []
    unseen = type(vnode)(cache)
    assert cache.vnode_range(unseen, 0, 64 * psize) == []


def test_vnode_leaves_the_index_with_its_last_page(cache, vnode):
    # Unlink/truncate churn must not leave one empty dict per dead vnode.
    a = fill_page(cache, vnode, 0)
    b = fill_page(cache, vnode, 8 * KB)
    assert set(cache._vpages) == {vnode.vnode_id}
    cache.destroy(a)
    assert set(cache._vpages) == {vnode.vnode_id}
    cache.destroy(b)
    assert cache._vpages == {} and cache._hash == {}


def test_stolen_identity_leaves_the_index(engine, vnode):
    small = PageCache(engine, memory_bytes=2 * 8 * KB, page_size=8 * KB)
    other = type(vnode)(small)
    for offset in (0, 8 * KB):
        small.free(fill_page(small, vnode, offset))
    # Both frames are free but still named; a second vnode steals them.
    fill_page(small, other, 0)
    assert small.vnode_pages(vnode)[0].offset == 8 * KB
    fill_page(small, other, 8 * KB)
    assert set(small._vpages) == {other.vnode_id}
    assert small.vnode_pages(vnode) == [] and small.dirty_pages(vnode) == []
    assert small.stats["identity_steals"] == 2


def test_create_unlink_churn_does_not_grow_the_index(cache, vnode):
    for _ in range(200):
        vn = type(vnode)(cache)
        for slot in range(3):
            fill_page(cache, vn, slot * 8 * KB)
        assert cache.vnode_invalidate(vn) == 3
    assert cache._vpages == {} and not any(p.named for p in cache.frames)
