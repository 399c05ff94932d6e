"""Shared fixtures for VM tests: a fake vnode whose putpage just cleans."""

import pytest

from repro.vfs import PutFlags, RW, Vnode, VnodeType


class FakeVnode(Vnode):
    """A vnode backed by nothing: putpage cleans/frees pages instantly."""

    def __init__(self, cache):
        super().__init__(VnodeType.REGULAR)
        self.cache = cache
        self._size = 0
        self.putpage_calls = []

    @property
    def size(self):
        return self._size

    def rdwr(self, rw, offset, payload):
        raise NotImplementedError
        yield

    def getpage(self, offset, rw=RW.READ):
        raise NotImplementedError
        yield

    def putpage(self, offset, length, flags: PutFlags, req=None):
        self.putpage_calls.append((offset, length, flags))
        page = self.cache.lookup(self, offset)
        if page is not None:
            page.dirty = False
            if flags.free and not page.locked and not page.free:
                self.cache.free(page)
        return
        yield


@pytest.fixture
def engine():
    from repro.sim import Engine

    return Engine()


@pytest.fixture
def cache(engine):
    from repro.obs.metrics import MetricsRegistry
    from repro.units import KB
    from repro.vm import PageCache

    return PageCache(engine, MetricsRegistry(engine),
                     memory_bytes=64 * 8 * KB, page_size=8 * KB)


@pytest.fixture
def vnode(cache):
    return FakeVnode(cache)
