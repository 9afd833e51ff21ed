"""The archive's byte-level write seam.

Every mutation the store performs on disk — temp-file writes, the
renames that commit them, the in-place rewrites of the manifest slots,
the removals that retire files — goes through one :class:`StoreIO`
object.  Production uses the module singleton :data:`REAL_IO`; the
chaos harness (:mod:`repro.faults.fs`) substitutes an IO that tears a
write at an exact byte boundary, dies at an exact operation index, or
flips a bit after the fact, which is how the crash-recovery property
test reaches *every* step of the commit protocol without
monkeypatching the filesystem.

Durability discipline: :meth:`StoreIO.write_atomic` writes a temp file
next to the target, fsyncs it, renames it over the target, and fsyncs
the directory — so after a real crash the target is either the old
bytes or the new bytes, never a splice.  :meth:`StoreIO.write_in_place`
overwrites bytes of an existing file and fsyncs it; it never truncates,
so it frees no blocks.  Commits use only these two and only ever rename
onto fresh names: on a filesystem that discards freed blocks, freeing
a file costs tens of milliseconds while an in-place write costs tens
of microseconds (DESIGN.md §12).  The operation sequence (one
``write_bytes`` + one ``replace`` per atomic write, one
``write_in_place`` per slot rewrite) is the unit the fault injectors
count in.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]


def tmp_name(path: Path) -> Path:
    """The temp-file name an atomic write of ``path`` uses."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def is_tmp(path: Path) -> bool:
    """True for temp files any writer (any pid) may have left behind."""
    return path.name.startswith(".") and path.name.endswith(".tmp")


class StoreIO:
    """Real filesystem operations, one overridable method per kind.

    Subclasses (the chaos IOs) override :meth:`write_bytes`,
    :meth:`write_in_place`, :meth:`replace` and :meth:`remove`;
    :meth:`write_atomic` composes them, so a fault plan that counts
    operations sees the commit protocol's true write sequence.
    """

    def write_bytes(self, path: Path, data: bytes) -> None:
        """One complete durable write of ``data`` to ``path``."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def write_in_place(self, path: Path, data: bytes) -> None:
        """Overwrite the start of an existing file, then fsync.

        Bytes past ``len(data)`` keep whatever they held: the file is
        never truncated, so the write frees no blocks.
        """
        fd = os.open(path, os.O_WRONLY)
        try:
            os.pwrite(fd, data, 0)
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: Path, dst: Path) -> None:
        """Atomic rename, then best-effort directory sync."""
        os.replace(src, dst)
        self._sync_dir(dst.parent)

    def remove(self, path: Path) -> None:
        """Remove a file; missing is not an error (idempotent)."""
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    # -- composed ------------------------------------------------------

    def write_atomic(self, path: PathLike, data: bytes) -> Path:
        """Temp file + fsync + rename: all-or-nothing replacement."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tmp_name(path)
        self.write_bytes(tmp, data)
        self.replace(tmp, path)
        return path

    @staticmethod
    def _sync_dir(directory: Path) -> None:
        # Directory fsync pins the rename itself; not all platforms
        # allow opening a directory, so failure is non-fatal.
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


#: Shared production IO — stateless, safe to share across archives.
REAL_IO = StoreIO()
