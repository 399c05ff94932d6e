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
