"""Filesystem-level fault injection for the survey archive.

Where :mod:`repro.faults.record` breaks measurement *data*, this
module breaks the *storage* underneath it: processes dying mid-commit,
writes torn at an arbitrary byte boundary, bits flipped at rest.  The
injectors plug into the archive's :class:`~repro.store.io.StoreIO`
seam, so the crash-recovery property test can stop a commit at every
operation the protocol performs — and, like the dataset injectors,
fault placement is **content-keyed**: a :class:`FsFaultKey` derives
each draw from ``(seed, artifact path)``, so the same archive corpus
corrupts identically regardless of iteration order.

Two crash modes:

* ``raise`` — :class:`CrashingIO` raises :class:`SimulatedCrash` at
  the planned boundary (fast, in-process, used by the property test);
* ``kill``  — the process SIGKILLs *itself* at the boundary (used by
  the CI chaos leg through ``scripts/chaos_crash_recovery.py``), so
  recovery is tested against a genuinely dead writer, not an unwound
  stack.

Every fault lands in the shared :class:`~repro.faults.base.FaultLog`,
keeping the ground-truth discipline: what the harness broke is exactly
what recovery and fsck must account for.
"""

from __future__ import annotations

import os
import signal
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..store.io import StoreIO
from .base import FaultLog

PathLike = Union[str, Path]


class SimulatedCrash(BaseException):
    """The process 'died' here.

    Derives from :class:`BaseException` so no ``except Exception``
    cleanup path in the code under test can swallow it — exactly like
    a real SIGKILL, nothing between the fault and the test harness
    gets to run recovery logic.
    """

    def __init__(self, op_index: int, detail: str):
        self.op_index = op_index
        self.detail = detail
        super().__init__(f"simulated crash at op {op_index}: {detail}")


@dataclass(frozen=True)
class CrashPlan:
    """Where one run dies: operation index + byte boundary + mode.

    ``byte_offset`` only applies when the planned operation is a
    ``write_bytes`` or a ``write_in_place`` — the write is torn after
    that many bytes (clamped to the data length; an in-place write's
    untouched tail keeps its old bytes).  For ``replace``/``remove``
    operations the
    crash lands *before* the operation; crashing after it is the same
    state as crashing before the next operation, so enumerating op
    indexes covers both sides of every rename.
    """

    op_index: int
    byte_offset: Optional[int] = None
    mode: str = "raise"  # "raise" | "kill"

    def __post_init__(self):
        if self.mode not in ("raise", "kill"):
            raise ValueError(f"unknown crash mode {self.mode!r}")


@dataclass(frozen=True)
class OpRecord:
    """One IO operation a recorded run performed."""

    kind: str  # "write" | "write-in-place" | "replace" | "remove"
    path: str
    size: int  # bytes written (the write kinds only; 0 otherwise)
    #: The op frees blocks: a remove, or a replace over an existing
    #: file.  Commits must do none of these (DESIGN.md §12).
    frees: bool = False


class RecordingIO(StoreIO):
    """Pass-through IO that records the operation sequence.

    A dry run under this IO yields the op list the property test
    enumerates crash points from — no hardcoded step count to drift
    out of sync with the commit protocol.
    """

    def __init__(self):
        self.ops: List[OpRecord] = []

    def write_bytes(self, path: Path, data: bytes) -> None:
        self.ops.append(OpRecord("write", str(path), len(data)))
        super().write_bytes(path, data)

    def write_in_place(self, path: Path, data: bytes) -> None:
        self.ops.append(OpRecord("write-in-place", str(path), len(data)))
        super().write_in_place(path, data)

    def replace(self, src: Path, dst: Path) -> None:
        self.ops.append(
            OpRecord("replace", str(dst), 0, frees=dst.exists())
        )
        super().replace(src, dst)

    def remove(self, path: Path) -> None:
        self.ops.append(OpRecord("remove", str(path), 0, frees=True))
        super().remove(path)


class CrashingIO(StoreIO):
    """IO that executes a :class:`CrashPlan` and then dies.

    Operations before the planned index run normally; the planned one
    is torn (writes) or skipped (renames/removals); then the process
    raises :class:`SimulatedCrash` or SIGKILLs itself.  A plan whose
    index exceeds the run's op count never fires — callers assert on
    :attr:`crashed` to distinguish.
    """

    def __init__(self, plan: CrashPlan, log: Optional[FaultLog] = None):
        self.plan = plan
        self.log = log if log is not None else FaultLog()
        self.op_index = 0
        self.crashed = False

    # -- the four seams -----------------------------------------------

    def write_bytes(self, path: Path, data: bytes) -> None:
        self._write(path, data, super().write_bytes)

    def write_in_place(self, path: Path, data: bytes) -> None:
        self._write(path, data, super().write_in_place)

    def _write(self, path: Path, data: bytes, write) -> None:
        if self.op_index == self.plan.op_index:
            torn = data[: self._clamp(len(data))]
            if torn:
                # The torn prefix really lands on disk: the half-written
                # temp file a dead process leaves, or a prefix over an
                # in-place target whose tail keeps its old bytes.
                write(path, torn)
            self._crash(
                f"write of {path.name} torn at "
                f"{len(torn)}/{len(data)} bytes",
                key=str(path),
            )
        self.op_index += 1
        write(path, data)

    def replace(self, src: Path, dst: Path) -> None:
        if self.op_index == self.plan.op_index:
            self._crash(f"died before rename to {dst.name}",
                        key=str(dst))
        self.op_index += 1
        super().replace(src, dst)

    def remove(self, path: Path) -> None:
        if self.op_index == self.plan.op_index:
            self._crash(f"died before removing {path.name}",
                        key=str(path))
        self.op_index += 1
        super().remove(path)

    # -- internals -----------------------------------------------------

    def _clamp(self, size: int) -> int:
        if self.plan.byte_offset is None:
            return 0
        return max(0, min(size, self.plan.byte_offset))

    def _crash(self, detail: str, key: str) -> None:
        self.crashed = True
        self.log.record("fs-crash", key=key, detail=detail)
        if self.plan.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise SimulatedCrash(self.plan.op_index, detail)


# -- corruption at rest ----------------------------------------------------


@dataclass(frozen=True)
class FsFaultKey:
    """Content-keyed RNG derivation for at-rest corruption.

    Seeds come from ``(run seed, artifact path)`` so a corpus-wide
    sweep flips the same bits whichever order the files are visited
    in — the same shard-invariance contract the dataset injectors
    keep.
    """

    seed: int

    def rng(self, path: PathLike) -> np.random.Generator:
        return np.random.default_rng([
            self.seed % (2 ** 32),
            zlib.crc32(str(path).encode("utf-8")),
        ])


def flip_bit(
    path: PathLike,
    offset: Optional[int] = None,
    bit: Optional[int] = None,
    key: Optional[FsFaultKey] = None,
    log: Optional[FaultLog] = None,
) -> Tuple[int, int]:
    """Flip one bit of a file in place (silent at-rest corruption).

    Explicit ``offset``/``bit`` pin the flip; otherwise both draw from
    the content-keyed RNG.  Returns ``(offset, bit)`` so tests can
    assert fsck attributes the damage to the right byte.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot flip a bit of empty file {path}")
    rng = (key if key is not None else FsFaultKey(0)).rng(path)
    if offset is None:
        offset = int(rng.integers(len(data)))
    if bit is None:
        bit = int(rng.integers(8))
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))
    if log is not None:
        log.record(
            "fs-bit-flip", key=str(path),
            detail=f"bit {bit} of byte {offset} flipped",
        )
    return offset, bit


def tear_file(
    path: PathLike,
    keep: Optional[int] = None,
    key: Optional[FsFaultKey] = None,
    log: Optional[FaultLog] = None,
) -> int:
    """Truncate a file to a prefix (a torn write that became visible).

    ``keep`` pins the boundary; otherwise it draws content-keyed from
    ``[0, size)``.  Returns the number of bytes kept.
    """
    path = Path(path)
    size = path.stat().st_size
    if keep is None:
        rng = (key if key is not None else FsFaultKey(0)).rng(path)
        keep = int(rng.integers(size)) if size else 0
    keep = max(0, min(size, keep))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    if log is not None:
        log.record(
            "fs-tear", key=str(path),
            detail=f"truncated to {keep}/{size} bytes",
        )
    return keep
