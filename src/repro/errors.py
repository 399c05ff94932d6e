"""Exception hierarchy for the reproduction.

Modelled failures (ENOSPC, EIO, ...) are ordinary exceptions raised *inside*
the simulation; they are distinct from :class:`repro.sim.SimulationError`,
which indicates misuse of the simulator itself.

Every modelled error carries an errno-style ``code`` string (``"EIO"``,
``"ENOSPC"``, ...) so tests and the CLI can assert on codes instead of
class names; :class:`repro.kernel.syscalls.Proc` mirrors the code of the
last failed syscall in its ``errno`` attribute, like the C library does.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all modelled errors."""

    #: errno-style code; subclasses override.
    code = "EUNKNOWN"


class DiskError(ReproError):
    """I/O error from the disk model (EIO)."""

    code = "EIO"


class TransientDiskError(DiskError):
    """A request failed for a recoverable reason (vibration, a soft ECC
    miss, a bus glitch); an identical retry is expected to succeed."""

    code = "EIO"


class MediaError(DiskError):
    """A hard media error: a latent bad sector that fails every access
    until the drive revectors it to a spare.  ``sector`` identifies the
    first bad sector in the failed request's range."""

    code = "EIO"

    def __init__(self, message: str = "media error", sector: "int | None" = None):
        super().__init__(message)
        self.sector = sector


class ChecksumError(DiskError):
    """A read returned bytes whose integrity record does not match: the
    per-fragment CRC disagrees (``reason="crc"``, bit rot or a torn/lost
    write) or the self-describing fragment address disagrees
    (``reason="address"``, a misdirected write).  ``sector``/``frag``
    locate the first bad fragment in the request's range."""

    code = "EIO"

    def __init__(self, message: str = "checksum mismatch",
                 sector: "int | None" = None, frag: "int | None" = None,
                 reason: str = "crc"):
        super().__init__(message)
        self.sector = sector
        self.frag = frag
        self.reason = reason


class MemberDeadError(DiskError):
    """A volume member died wholesale (electronics failure): every request
    to it fails instantly and its volatile cache contents are gone.  A
    redundant volume degrades; anything else surfaces the error."""

    code = "EIO"


class DiskTimeoutError(DiskError):
    """The controller stopped responding; the request hung and was failed
    by the driver's timeout handling (ETIMEDOUT)."""

    code = "ETIMEDOUT"


class NetworkError(ReproError):
    """Base class for network/RPC level errors (the NFS path)."""

    code = "EIO"


class RpcTimeoutError(NetworkError):
    """A soft-mounted RPC exhausted its retransmissions: the major timeout
    expired with no reply (ETIMEDOUT).  Hard mounts never raise this — they
    retry forever, exactly like ``mount -o hard``."""

    code = "ETIMEDOUT"


class FilesystemError(ReproError):
    """Base class for file-system level errors."""


class NoSpaceError(FilesystemError):
    """File system out of blocks/fragments/inodes (ENOSPC)."""

    code = "ENOSPC"


class FileNotFoundError_(FilesystemError):
    """Path component does not exist (ENOENT)."""

    code = "ENOENT"


class FileExistsError_(FilesystemError):
    """Path already exists (EEXIST)."""

    code = "EEXIST"


class NotADirectoryError_(FilesystemError):
    """Path component is not a directory (ENOTDIR)."""

    code = "ENOTDIR"


class IsADirectoryError_(FilesystemError):
    """Operation not valid on a directory (EISDIR)."""

    code = "EISDIR"


class DirectoryNotEmptyError(FilesystemError):
    """rmdir on a non-empty directory (ENOTEMPTY)."""

    code = "ENOTEMPTY"


class InvalidArgumentError(ReproError):
    """Bad argument to a syscall-level API (EINVAL)."""

    code = "EINVAL"


class BadFileError(ReproError):
    """Operation on a closed or invalid file descriptor (EBADF)."""

    code = "EBADF"


class CorruptionError(FilesystemError):
    """On-disk metadata failed validation (what fsck exists to find)."""

    code = "EUCLEAN"


def decode_name(raw: bytes, what: str) -> str:
    """An on-disk name or link target as text; bytes that are not UTF-8
    are a :class:`CorruptionError` naming ``what``."""
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise CorruptionError(f"{what} is not UTF-8: {raw!r}") from None
