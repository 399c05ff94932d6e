"""Tests for the units helpers and the error hierarchy."""

import pytest

from repro import errors
from repro.units import KB, MB, kb_per_sec


def test_size_constants():
    assert KB == 1024
    assert MB == 1024 * KB


def test_kb_per_sec():
    assert kb_per_sec(1024 * 1024, 1.0) == 1024
    assert kb_per_sec(512 * 1024, 0.5) == 1024
    with pytest.raises(ValueError):
        kb_per_sec(100, 0)


def test_error_hierarchy():
    assert issubclass(errors.NoSpaceError, errors.FilesystemError)
    assert issubclass(errors.FilesystemError, errors.ReproError)
    assert issubclass(errors.DiskError, errors.ReproError)
    assert issubclass(errors.CorruptionError, errors.FilesystemError)
    for name in ("FileNotFoundError_", "FileExistsError_",
                 "NotADirectoryError_", "IsADirectoryError_",
                 "DirectoryNotEmptyError"):
        assert issubclass(getattr(errors, name), errors.FilesystemError)
    assert issubclass(errors.InvalidArgumentError, errors.ReproError)
    assert issubclass(errors.BadFileError, errors.ReproError)


def test_public_api_imports():
    import repro

    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None or name == "__version__"
