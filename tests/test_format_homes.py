"""Structural guard: one home per on-disk format, one buffer cache.

Nothing in the code says why ``struct`` may be imported in only three
modules or why a second class with a ``bread`` is an error, so it is said
here.  Before PR 18 ten modules packed bytes by hand — the direct /
indirect / double-indirect ladder was written out four times and dirent
fields were patched at hand-counted offsets — and S5FS carried a copy of
the buffer cache that had drifted from the original (no in-flight table:
two processes missing on one block lost an update).  Both were mirror
pairs nobody had chosen to have.  The next on-disk change (a journal, a
checksum field, wider pointers) must be a change to one file per file
system, and the next cache fix must reach every file system at once; a
new ``import struct`` or a second ``def bread`` is how either would start
to stop being true.  A module can also know the format without ``struct``
— the superblock's sector written as ``16``, pointer words packed with
``int.to_bytes(4, "little")``, a dirent header unpacked through
``Dirent._HEAD`` borrowed from the home — so those constructs are looked
for too.

The same file holds a second split: each layer checks its own books.  A
sanitizer check of one layer's bookkeeping is a method of that layer; a
file-system check is a ``Vfs`` method the UFS overrides and the base
leaves empty.  While the sanitizer read the engine's, the driver's and
the page cache's private tables and imported the UFS to decode its
blocks, every layer's books had two homes, ``sim/`` imported the file
system that imports it, and S5FS and NFS machines were skipped by a type
test.  A ``repro.ufs`` import under ``sim/`` or in the scrubber, a private
attribute of another object read by the sanitizer, or an
``isinstance(…, UfsMount)`` anywhere is how that would start again.

A third: the sanitizer has one switch, read where a machine is born.
While each campaign and IObench took a ``sanitize`` argument and set
``sanitizer.enabled`` after the boot, the one bit travelled four ways
and a committed cell (the boot's checks) moved with the environment.
``REPRO_SANITIZE`` named outside ``sim/invariants.py``, or a
``.sanitizer.enabled`` assigned anywhere in the package, is how that
would start again.

A fourth: every instrument is born in its machine's registry.  While
each layer built ``StatSet("pagecache")`` and a ``register_metrics``
method named it again as ``vm.pagecache``, a namespace was written
twice, ``System`` glued eight such methods together, two special cases
disagreed about a second mount or scrubber, and the pageout daemon's
counters reached no snapshot.  A ``def register_metrics``, or a
``StatSet(`` / ``TimeWeighted(`` / ``Histogram(`` called outside the
registry, ``Histogram.since``, the per-kind latency histograms and the
modules of ``tests/obs/test_metrics.py``'s ``DARK`` table, is how that
would start again.

A fifth: one way to empty a file.  While UFS let go of a file's bytes in
four hand-made copies (a path-API ``truncate`` only tests called, inode
destruction, ``rmdir``'s own walk, a fast-symlink fork) and S5FS in a
private ``_truncate_and_free``, none was reachable from a syscall and
``creat`` kept the old bytes; the fast-symlink test ``size <=
FAST_SYMLINK_MAX`` was written four times, and one of them made the
sanitizer skip slow symlinks' real blocks.  A second caller of
``bmap.truncate_blocks``, one of the retired copies defined again, or
``FAST_SYMLINK_MAX`` compared outside ``ufs/ondisk.py`` is how that would
start again.

A sixth: a page's bytes are held once.  While every frame owned a private
``bytearray`` that each fill and write copied into, a block the writer,
the NFS reply and the disk already held as immutable ``bytes`` was held
two or three times over.  A page's ``data`` is now shared immutable bytes
until ``Page.write`` — the one mutator — copies it; a store into
``page.data[...]`` (``=`` or ``^=``) anywhere but ``vm/page.py`` would
write through bytes the disk or another page may share, and is how that
would start again.
"""

import ast
import re
from pathlib import Path

from tests.obs.test_metrics import DARK

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FORMAT_HOMES = {"ufs/ondisk.py", "s5fs/ondisk.py", "integrity/checksum.py"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_struct_is_imported_only_by_the_format_homes():
    importers = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] == "struct"
                            for a in node.names)
                    or isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "struct"):
                importers.add(name)
    assert importers == FORMAT_HOMES


def _hand_packed(tree):
    """What knows the format without importing ``struct``: the
    superblock's sector as a literal first argument (``store.read(16,
    16)``), a byte order picked at the call (``int.from_bytes(b,
    "little")``), the fast-symlink word count (``NDADDR + 2``), a format
    class's private struct taken out of its home (``Dirent._HEAD``)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and type(node.args[0].value) is int
                and node.args[0].value == 16):
            yield f"line {node.lineno}: sector 16 by hand"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_bytes", "from_bytes")):
            yield f"line {node.lineno}: {node.func.attr}"
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and isinstance(node.left, ast.Name)
                and node.left.id == "NDADDR"
                and isinstance(node.right, ast.Constant)
                and node.right.value == 2):
            yield f"line {node.lineno}: NDADDR + 2"
        if (isinstance(node, ast.Attribute)
                and re.fullmatch(r"_[A-Z][A-Z0-9_]*", node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id[:1].isupper()):
            yield f"line {node.lineno}: {node.value.id}.{node.attr}"


def test_no_format_is_known_outside_its_home():
    found = {name: list(_hand_packed(tree)) for name, tree in _modules()
             if name not in FORMAT_HOMES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_guard_sees_each_construct():
    for text in ("store.read(16, 16)", "int.from_bytes(b, 'little')",
                 "w.to_bytes(4, 'little')", "n = (NDADDR + 2) * 4 - 1",
                 "_HEAD = Dirent._HEAD"):
        assert list(_hand_packed(ast.parse(text))), text


def test_one_class_defines_bread():
    owners = [f"{name}:{cls.name}" for name, tree in _modules()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.FunctionDef) and item.name == "bread"]
    assert owners == ["ufs/metacache.py:MetaCache"]


def _ufs_imports(tree):
    """Every import of ``repro.ufs`` or a module in it, at any level:
    module top, function body, ``TYPE_CHECKING`` block."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "repro.ufs" or n.startswith("repro.ufs.") for n in names):
            yield f"line {node.lineno}: {names[0]}"


def _foreign_privates(tree):
    """Every ``_``-prefixed attribute read of an object other than
    ``self`` (dunders aside)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self")):
            yield f"line {node.lineno}: .{node.attr}"


def _ufs_type_tests(tree):
    """Every ``isinstance(x, …UfsMount…)``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(getattr(n, "id", getattr(n, "attr", None))
                        == "UfsMount" for n in ast.walk(node.args[1]))):
            yield f"line {node.lineno}: isinstance(..., UfsMount)"


def _page_frame_reads(tree):
    """Every read of a page cache's ``frames``: a frame never allocated is
    ``None``, which only the VM layer may see."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "frames"
                and getattr(node.value, "id",
                            getattr(node.value, "attr", None)) == "pagecache"):
            yield f"line {node.lineno}: pagecache.frames"


def test_sim_and_the_scrubber_import_no_ufs():
    found = {name: list(_ufs_imports(tree)) for name, tree in _modules()
             if name.startswith("sim/") or name == "integrity/scrub.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_sanitizer_reads_no_other_objects_privates():
    tree = ast.parse((SRC / "sim" / "invariants.py").read_text())
    assert list(_foreign_privates(tree)) == []


def test_only_the_vm_reads_the_page_frames():
    found = {name: list(_page_frame_reads(tree)) for name, tree in _modules()
             if not name.startswith("vm/")}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_type_test_picks_out_the_ufs():
    found = {name: list(_ufs_type_tests(tree)) for name, tree in _modules()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _switch_uses(tree):
    """Every ``"REPRO_SANITIZE"`` literal and every assignment to a
    ``.sanitizer.enabled``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and node.value == "REPRO_SANITIZE"):
            yield f"line {node.lineno}: REPRO_SANITIZE"
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [getattr(node, "target", None)])
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr == "enabled"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "sanitizer"):
                yield f"line {node.lineno}: .sanitizer.enabled ="


def test_the_sanitizer_switch_is_read_only_where_machines_are_born():
    found = {name: list(_switch_uses(tree)) for name, tree in _modules()}
    found["sim/invariants.py"] = [
        hit for hit in found["sim/invariants.py"] if "REPRO" not in hit]
    assert {name: hits for name, hits in found.items() if hits} == {}


def _instrument_births(tree):
    """Every ``def register_metrics`` and every ``StatSet(`` /
    ``TimeWeighted(`` / ``Histogram(`` call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name == "register_metrics"):
            yield f"line {node.lineno}: def register_metrics"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("StatSet", "TimeWeighted", "Histogram")):
            yield f"line {node.lineno}: {node.func.id}("


def test_every_instrument_is_born_in_the_registry():
    dark = {entry.split(":")[0] for entry in DARK}
    allowed = {"obs/metrics.py": ("StatSet(", "TimeWeighted(", "Histogram("),
               "sim/stats.py": ("Histogram(",),  # Histogram.since
               "sim/request.py": ("Histogram(",),  # per-kind latencies
               **{name: ("StatSet(",) for name in dark}}
    found = {name: [hit for hit in _instrument_births(tree)
                    if not hit.endswith(allowed.get(name, ()))]
             for name, tree in _modules()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_book_guards_see_each_construct():
    for guard, text in (
            (_ufs_imports, "import repro.ufs.mount"),
            (_ufs_imports, "from repro import ufs"),
            (_ufs_imports, "def f():\n    from repro.ufs.ondisk import HOLE"),
            (_foreign_privates, "engine._live"),
            (_foreign_privates, "self.system.pagecache._vpages"),
            (_page_frame_reads, "system.pagecache.frames[0]"),
            (_page_frame_reads, "for page in pagecache.frames: pass"),
            (_ufs_type_tests, "isinstance(mount, UfsMount)"),
            (_ufs_type_tests, "isinstance(m, (S5FileSystem, ufs.UfsMount))"),
            (_switch_uses, "os.environ.get('REPRO_SANITIZE')"),
            (_switch_uses, "system.sanitizer.enabled = flag"),
            (_switch_uses, "self.system.sanitizer.enabled |= True"),
            (_instrument_births, "def register_metrics(self, registry): pass"),
            (_instrument_births, "self.stats = StatSet('pagecache')"),
            (_instrument_births, "self.depth = TimeWeighted(engine, 0)"),
            (_instrument_births, "wait = Histogram('wait')")):
        assert list(guard(ast.parse(text))), text
    assert not list(_foreign_privates(ast.parse("self._x, a.__class__")))
    assert not list(_ufs_imports(ast.parse("from repro.ufsx import y")))
    assert not list(_page_frame_reads(ast.parse("self.frames[0]")))
    assert not list(_instrument_births(ast.parse(
        "self.stats = metrics.counters('vm.pagecache')")))


def _block_walk_calls(tree):
    """Every call of ``truncate_blocks``, bare or through a module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "truncate_blocks"):
            yield f"line {node.lineno}: truncate_blocks("


def _retired_release_copies(tree):
    """Every ``def _truncate_and_free`` / ``def _release_file_blocks`` and
    every ``truncate`` method of a ``UfsMount``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and node.name in ("_truncate_and_free",
                                  "_release_file_blocks")):
            yield f"line {node.lineno}: def {node.name}"
        if isinstance(node, ast.ClassDef) and node.name == "UfsMount":
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and item.name == "truncate"):
                    yield f"line {item.lineno}: def UfsMount.truncate"


def _fast_symlink_compares(tree):
    """Every comparison with ``FAST_SYMLINK_MAX`` as an operand."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and any(getattr(n, "id", getattr(n, "attr", None))
                        == "FAST_SYMLINK_MAX"
                        for n in (node.left, *node.comparators))):
            yield f"line {node.lineno}: FAST_SYMLINK_MAX compared"


def test_one_walk_frees_a_files_blocks():
    callers = [name for name, tree in _modules()
               for _ in _block_walk_calls(tree)]
    assert callers == ["ufs/vnode.py"]
    found = {name: list(_retired_release_copies(tree))
             for name, tree in _modules()}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_one_predicate_knows_a_fast_symlink():
    found = {name: list(_fast_symlink_compares(tree))
             for name, tree in _modules() if name != "ufs/ondisk.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_release_guards_see_each_construct():
    for guard, text in (
            (_block_walk_calls, "yield from bmap.truncate_blocks(m, ip)"),
            (_block_walk_calls, "truncate_blocks(mount, ip)"),
            (_retired_release_copies, "def _truncate_and_free(self): pass"),
            (_retired_release_copies, "def _release_file_blocks(s, ip): pass"),
            (_retired_release_copies,
             "class UfsMount:\n    def truncate(self, path): pass"),
            (_fast_symlink_compares, "if ip.size <= FAST_SYMLINK_MAX: pass"),
            (_fast_symlink_compares, "big = ondisk.FAST_SYMLINK_MAX < n")):
        assert list(guard(ast.parse(text))), text
    assert not list(_retired_release_copies(ast.parse(
        "class UfsVnode:\n    def truncate(self): pass")))
    assert not list(_fast_symlink_compares(ast.parse(
        "FAST_SYMLINK_MAX = _FAST_LINK.size - 1")))


def _page_data_stores(tree):
    """Every store into a subscript of a page's ``data``: ``page.data[i] =
    x``, ``page.data[a:b] = x``, ``self.page.data[0] ^= 1``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in ast.walk(target)]
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "data"
                    and str(getattr(target.value.value, "id", getattr(
                        target.value.value, "attr", ""))).endswith("page")):
                yield f"line {node.lineno}: page.data[...] stored"


def test_only_the_page_stores_into_its_bytes():
    found = {name: list(_page_data_stores(tree)) for name, tree in _modules()
             if name != "vm/page.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_page_store_guard_sees_each_construct():
    for text in ("page.data[in_page:in_page + n] = data[:n]",
                 "page.data[0] ^= 0xFF",
                 "self.page.data[0] = 1",
                 "first, page.data[3] = 1, 2",
                 "busy_page.data[:] = b'x' * 8192"):
        assert list(_page_data_stores(ast.parse(text))), text
    for text in ("meta.data[:3] = b'xyz'", "head = page.data[0]",
                 "page.write(0, data)", "page.data = block"):
        assert not list(_page_data_stores(ast.parse(text))), text
