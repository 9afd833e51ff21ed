"""Filesystem fault injectors: crash plans, recording, at-rest damage."""

from pathlib import Path

import pytest

from repro.faults import (
    CrashPlan,
    CrashingIO,
    FaultLog,
    FsFaultKey,
    OpRecord,
    RecordingIO,
    SimulatedCrash,
    flip_bit,
    tear_file,
)
from repro.store.io import REAL_IO, is_tmp, tmp_name


class TestStoreIO:
    def test_write_atomic_lands_whole(self, tmp_path):
        target = tmp_path / "deep" / "file.json"
        REAL_IO.write_atomic(target, b"payload")
        assert target.read_bytes() == b"payload"
        # No temp residue after a clean atomic write.
        assert [p for p in target.parent.iterdir()] == [target]

    def test_remove_idempotent(self, tmp_path):
        missing = tmp_path / "never-existed"
        REAL_IO.remove(missing)  # must not raise

    def test_tmp_naming_roundtrip(self, tmp_path):
        target = tmp_path / "file.json"
        tmp = tmp_name(target)
        assert is_tmp(tmp)
        assert not is_tmp(target)


class TestRecordingIO:
    def test_records_the_op_sequence(self, tmp_path):
        io = RecordingIO()
        io.write_atomic(tmp_path / "a.json", b"xyz")
        io.remove(tmp_path / "a.json")
        kinds = [op.kind for op in io.ops]
        assert kinds == ["write", "replace", "remove"]
        assert io.ops[0].size == 3
        assert (tmp_path / "a.json").exists() is False

    def test_marks_ops_that_free_blocks(self, tmp_path):
        io = RecordingIO()
        io.write_atomic(tmp_path / "a.json", b"xyz")    # fresh name
        io.write_atomic(tmp_path / "a.json", b"xyzw")   # over a.json
        io.write_in_place(tmp_path / "a.json", b"\0")
        io.remove(tmp_path / "a.json")
        assert [(op.kind, op.frees) for op in io.ops] == [
            ("write", False), ("replace", False),
            ("write", False), ("replace", True),
            ("write-in-place", False), ("remove", True),
        ]

    def test_op_record_paths_name_final_target(self, tmp_path):
        io = RecordingIO()
        io.write_atomic(tmp_path / "a.json", b"xyz")
        write, replace = io.ops
        assert is_tmp(Path(write.path))
        assert Path(replace.path) == tmp_path / "a.json"


class TestCrashingIO:
    def test_crash_before_replace_leaves_torn_tmp(self, tmp_path):
        target = tmp_path / "a.json"
        io = CrashingIO(CrashPlan(op_index=1))
        with pytest.raises(SimulatedCrash):
            io.write_atomic(target, b"0123456789")
        assert io.crashed
        assert not target.exists()
        leftovers = list(tmp_path.iterdir())
        assert len(leftovers) == 1 and is_tmp(leftovers[0])

    def test_torn_write_keeps_exact_prefix(self, tmp_path):
        target = tmp_path / "a.json"
        io = CrashingIO(CrashPlan(op_index=0, byte_offset=4))
        with pytest.raises(SimulatedCrash):
            io.write_atomic(target, b"0123456789")
        (leftover,) = list(tmp_path.iterdir())
        assert leftover.read_bytes() == b"0123"

    def test_zero_offset_write_leaves_nothing(self, tmp_path):
        io = CrashingIO(CrashPlan(op_index=0, byte_offset=0))
        with pytest.raises(SimulatedCrash):
            io.write_atomic(tmp_path / "a.json", b"0123456789")
        assert list(tmp_path.iterdir()) == []

    def test_in_place_write_torn_at_every_offset(self, tmp_path):
        target = tmp_path / "slot"
        old, new = b"abcdefgh-tail", b"01234567"
        for offset in range(len(new) + 1):
            target.write_bytes(old)
            io = CrashingIO(CrashPlan(op_index=0, byte_offset=offset))
            with pytest.raises(SimulatedCrash):
                io.write_in_place(target, new)
            # The prefix landed over the old bytes; nothing truncated.
            assert target.read_bytes() == new[:offset] + old[offset:]

    def test_in_place_write_never_truncates(self, tmp_path):
        target = tmp_path / "slot"
        target.write_bytes(b"0123456789")
        REAL_IO.write_in_place(target, b"ab")
        assert target.read_bytes() == b"ab23456789"

    def test_plan_beyond_run_never_fires(self, tmp_path):
        io = CrashingIO(CrashPlan(op_index=99))
        io.write_atomic(tmp_path / "a.json", b"data")
        assert not io.crashed
        assert (tmp_path / "a.json").read_bytes() == b"data"

    def test_simulated_crash_is_not_an_exception(self):
        # `except Exception` must never swallow a crash.
        assert not issubclass(SimulatedCrash, Exception)

    def test_crash_lands_in_fault_log(self, tmp_path):
        log = FaultLog()
        io = CrashingIO(CrashPlan(op_index=0), log=log)
        with pytest.raises(SimulatedCrash):
            io.write_atomic(tmp_path / "a.json", b"data")
        assert log.count("fs-crash") == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(op_index=0, mode="explode")


class TestAtRestCorruption:
    def test_flip_bit_changes_exactly_one_bit(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(bytes(range(32)))
        before = target.read_bytes()
        offset, bit = flip_bit(target, key=FsFaultKey(7))
        after = target.read_bytes()
        assert len(after) == len(before)
        diff = [
            i for i, (a, b) in enumerate(zip(before, after)) if a != b
        ]
        assert diff == [offset]
        assert before[offset] ^ after[offset] == 1 << bit

    def test_flip_bit_content_keyed_determinism(self, tmp_path):
        a = tmp_path / "blob"
        a.write_bytes(bytes(range(64)))
        first = flip_bit(a, key=FsFaultKey(7))
        a.write_bytes(bytes(range(64)))
        second = flip_bit(a, key=FsFaultKey(7))
        assert first == second
        a.write_bytes(bytes(range(64)))
        other_seed = flip_bit(a, key=FsFaultKey(8))
        other_path = tmp_path / "blob2"
        other_path.write_bytes(bytes(range(64)))
        other_file = flip_bit(other_path, key=FsFaultKey(7))
        assert other_seed != first or other_file != first

    def test_flip_bit_refuses_empty_file(self, tmp_path):
        target = tmp_path / "empty"
        target.write_bytes(b"")
        with pytest.raises(ValueError):
            flip_bit(target)

    def test_tear_file_keeps_prefix(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(b"0123456789")
        kept = tear_file(target, keep=3)
        assert kept == 3
        assert target.read_bytes() == b"012"

    def test_tear_file_logs(self, tmp_path):
        log = FaultLog()
        target = tmp_path / "blob"
        target.write_bytes(b"0123456789")
        tear_file(target, keep=5, log=log)
        assert log.count("fs-tear") == 1
