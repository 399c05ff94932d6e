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
to stop being true.
"""

import ast
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


def test_one_class_defines_bread():
    owners = [f"{name}:{cls.name}" for name, tree in _modules()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.FunctionDef) and item.name == "bread"]
    assert owners == ["ufs/metacache.py:MetaCache"]
