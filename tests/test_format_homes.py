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
"""

import ast
import re
from pathlib import Path

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


def test_sim_and_the_scrubber_import_no_ufs():
    found = {name: list(_ufs_imports(tree)) for name, tree in _modules()
             if name.startswith("sim/") or name == "integrity/scrub.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_sanitizer_reads_no_other_objects_privates():
    tree = ast.parse((SRC / "sim" / "invariants.py").read_text())
    assert list(_foreign_privates(tree)) == []


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


def test_the_book_guards_see_each_construct():
    for guard, text in (
            (_ufs_imports, "import repro.ufs.mount"),
            (_ufs_imports, "from repro import ufs"),
            (_ufs_imports, "def f():\n    from repro.ufs.ondisk import HOLE"),
            (_foreign_privates, "engine._live"),
            (_foreign_privates, "self.system.pagecache._hash"),
            (_ufs_type_tests, "isinstance(mount, UfsMount)"),
            (_ufs_type_tests, "isinstance(m, (S5FileSystem, ufs.UfsMount))"),
            (_switch_uses, "os.environ.get('REPRO_SANITIZE')"),
            (_switch_uses, "system.sanitizer.enabled = flag"),
            (_switch_uses, "self.system.sanitizer.enabled |= True")):
        assert list(guard(ast.parse(text))), text
    assert not list(_foreign_privates(ast.parse("self._x, a.__class__")))
    assert not list(_ufs_imports(ast.parse("from repro.ufsx import y")))
