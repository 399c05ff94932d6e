"""``Page``'s bytes against a ``bytearray`` model, and the sharing rule.

A page holds immutable ``bytes`` it may share — the zero block, a caller's
buffer, a disk chunk — until :meth:`Page.write` copies it.  Generated
sequences of ``fill`` / ``zero`` / ``write`` / ``share`` / ``name`` /
``unname`` over a few pages, fed a small pool of caller objects (so pages adopt the same
object), must leave each page's bytes equal to a private ``bytearray``
model after every step, never let two pages share a mutable buffer, never
let a page alias a caller's mutable buffer, and never change a caller's
object.

Hand mutations that must each fail this file (run by hand when this file
or ``Page`` changes): ``fill`` or ``write`` adopting a whole-page ``bytearray``
uncopied, ``fill`` dropping the zero pad, two pages' private copies of one
shared ``bytes`` made as one buffer, ``share`` taking a ``bytearray`` or
bytes of another content.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskStore
from repro.sim import Engine
from repro.vm import Page

SIZE = 64
PAGES = 3

#: Whole-page caller objects the pages adopt; the first is all zeros.
POOL = [bytes(SIZE), bytes(range(SIZE)), b"\xff" * SIZE]


#: A caller's data: a pool object itself, or fresh bytes — short or a whole
#: page — passed as ``bytes``, ``bytearray`` or ``memoryview``.
PAYLOAD = st.one_of(
    st.sampled_from(POOL),
    st.one_of(st.binary(max_size=SIZE),
              st.binary(min_size=SIZE, max_size=SIZE),
              st.sampled_from(POOL).map(bytes)).flatmap(
        lambda b: st.sampled_from([b, bytearray(b), memoryview(b)])),
)

OPS = st.one_of(
    st.tuples(st.just("fill"), st.integers(0, PAGES - 1), PAYLOAD),
    st.tuples(st.just("zero"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("write"), st.integers(0, PAGES - 1),
              st.one_of(st.just(0), st.integers(0, SIZE)), PAYLOAD),
    st.tuples(st.just("name"), st.integers(0, PAGES - 1),
              st.integers(-1, 3).map(lambda k: k * SIZE + (k == 3))),
    st.tuples(st.just("share"), st.integers(0, PAGES - 1), PAYLOAD),
    st.tuples(st.just("share_equal"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("unname"), st.integers(0, PAGES - 1)),
    st.tuples(st.just("scribble"), st.integers(0, SIZE - 1)),
)


class _Vnode:
    vnode_id = 1


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_page_bytes_match_a_private_bytearray(ops):
    engine = Engine()
    vnode = _Vnode()
    pages = [Page(engine, frame, SIZE) for frame in range(PAGES)]
    model = [bytearray(SIZE) for _ in range(PAGES)]
    named = [None] * PAGES
    pool_before = [bytes(obj) for obj in POOL]
    handed = []  # every caller object a page was given
    mutable = []  # the writable buffers among them
    for op in ops:
        kind, *args = op
        if kind == "fill":
            index, data = args
            pages[index].fill(data)
            model[index][:] = bytes(data).ljust(SIZE, b"\0")
            handed.append(data)
        elif kind == "zero":
            pages[args[0]].zero()
            model[args[0]][:] = bytes(SIZE)
        elif kind == "write":
            index, offset, data = args
            if offset + len(data) > SIZE:
                try:
                    pages[index].write(offset, data)
                except ValueError:
                    continue
                raise AssertionError("write past the page end accepted")
            pages[index].write(offset, data)
            model[index][offset:offset + len(data)] = data
            handed.append(data)
        elif kind == "name":
            index, offset = args
            if named[index] is not None or offset < 0 or offset % SIZE:
                try:
                    pages[index].name(vnode, offset)
                except (RuntimeError, ValueError):
                    continue
                raise AssertionError("bad name accepted")
            pages[index].name(vnode, offset)
            named[index] = offset
        elif kind == "share":
            index, data = args
            pages[index].share(data)  # contents never change
            handed.append(data)
        elif kind == "share_equal":  # the disk's copy of the same bytes
            block = bytes(model[args[0]])
            pages[args[0]].share(block)
            assert pages[args[0]].data is block or not any(block)
        elif kind == "unname":
            pages[args[0]].unname()
            named[args[0]] = None
        else:  # the caller reuses a buffer it handed over
            for data in mutable:
                if args[0] < len(data):
                    data[args[0]] ^= 0x5A
        for page, want, offset in zip(pages, model, named):
            assert len(page.data) == SIZE and page.data == want
            assert type(page.data) in (bytes, bytearray)
            assert page.offset == (-1 if offset is None else offset)
        private = [id(p.data) for p in pages if type(p.data) is bytearray]
        assert len(private) == len(set(private))
        mutable = [d.obj if isinstance(d, memoryview) else d for d in handed]
        mutable = [d for d in mutable if isinstance(d, bytearray)]
        assert not {id(p.data) for p in pages} & {id(d) for d in mutable}
    assert [bytes(obj) for obj in POOL] == pool_before


def test_a_page_is_born_on_the_zero_block_and_adopts_whole_pages():
    engine = Engine()
    first, second = Page(engine, 0, SIZE), Page(engine, 1, SIZE)
    assert first.data is second.data == bytes(SIZE)
    first.fill(POOL[1])
    second.write(0, POOL[1])
    assert first.data is second.data is POOL[1]
    first.fill(bytes(SIZE))  # all zeros collapse to the shared block
    assert first.data is Page(engine, 2, SIZE).data


def test_two_pages_share_one_object_and_a_write_copies_only_its_own():
    """Two pages adopt one caller object that the disk also keeps as its
    chunk; writing one page leaves the other page, the caller's object and
    the chunk byte-identical."""
    engine = Engine()
    block = bytes(range(256)) * 32
    original = bytes(bytearray(block))
    store = DiskStore(total_sectors=64)
    store.write(16, block)
    left, right = Page(engine, 0, len(block)), Page(engine, 1, len(block))
    left.fill(block)
    right.write(0, block)
    chunk = store.read(16, 16)
    assert left.data is right.data is chunk is block
    right.write(100, b"\x00\x01\x02")
    assert type(right.data) is bytearray and right.data[100:103] == b"\0\1\2"
    assert left.data is block and block == original
    assert store.read(16, 16) is block
