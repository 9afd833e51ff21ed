"""Tests for the packed segment format."""

import pytest

from repro.io import survey_to_dict
from repro.store import ArchiveCorruptionError, canonical_json
from repro.store.segments import (
    _TRAILER_LEN,
    MAGIC,
    SegmentReader,
    write_segment,
)


@pytest.fixture()
def payload(survey_june):
    return survey_to_dict(survey_june)


@pytest.fixture()
def segment(tmp_path, payload):
    return write_segment(tmp_path / "p.seg", payload)


class TestWriteRead:
    def test_magic_header(self, segment):
        assert segment.read_bytes().startswith(MAGIC)

    def test_point_lookup(self, segment, payload):
        with SegmentReader(segment) as reader:
            assert reader.asns() == [100, 200, 300]
            assert 100 in reader and 77777 not in reader
            entry = reader.get(100)
        assert canonical_json(entry) == canonical_json(
            payload["reports"]["100"]
        )

    def test_absent_asn_is_none(self, segment):
        with SegmentReader(segment) as reader:
            assert reader.get(77777) is None

    def test_period_header(self, segment, payload):
        with SegmentReader(segment) as reader:
            assert reader.period == payload["period"]

    def test_full_payload_lossless(self, segment, payload):
        with SegmentReader(segment) as reader:
            assert canonical_json(reader.payload()) == canonical_json(
                payload
            )

    def test_failures_and_quality_survive(self, segment, payload):
        with SegmentReader(segment) as reader:
            restored = reader.payload()
        assert restored["failures"] == payload["failures"]
        assert restored["quality"] == payload["quality"]


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArchiveCorruptionError):
            SegmentReader(tmp_path / "absent.seg")

    def test_bad_magic(self, segment):
        data = segment.read_bytes()
        segment.write_bytes(b"NOTASEG!!\n" + data[len(MAGIC):])
        with pytest.raises(ArchiveCorruptionError, match="magic"):
            SegmentReader(segment)

    def test_truncated_file(self, segment):
        segment.write_bytes(segment.read_bytes()[:20])
        with pytest.raises(ArchiveCorruptionError):
            SegmentReader(segment)

    def test_flipped_blob_bit(self, segment, payload):
        # Corrupt the first report blob (just after the magic) —
        # the footer still parses, the blob checksum must catch it.
        data = bytearray(segment.read_bytes())
        data[len(MAGIC) + 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        reader = SegmentReader(segment)
        with pytest.raises(ArchiveCorruptionError, match="AS100"):
            reader.get(100)
        with pytest.raises(ArchiveCorruptionError):
            reader.payload()
        reader.close()

    def test_trailer_digit_flipped_to_space(self, segment):
        """``int`` would read ``" 0...0N"`` as the same offset; the
        trailer must be all digits."""
        data = bytearray(segment.read_bytes())
        data[-_TRAILER_LEN] ^= 0x10  # "0" -> " "
        segment.write_bytes(bytes(data))
        with pytest.raises(ArchiveCorruptionError, match="trailer"):
            SegmentReader(segment)

    def test_flipped_footer_bit(self, segment):
        data = bytearray(segment.read_bytes())
        data[-100] ^= 0xFF  # inside footer or trailer
        segment.write_bytes(bytes(data))
        with pytest.raises(ArchiveCorruptionError):
            SegmentReader(segment)


class TestConcurrency:
    def test_shared_reader_across_threads(self, segment, payload):
        import threading

        reader = SegmentReader(segment)
        failures = []

        def worker():
            for _ in range(50):
                for asn in (100, 200, 300):
                    entry = reader.get(asn)
                    if entry != payload["reports"][str(asn)]:
                        failures.append(asn)

        threads = [
            threading.Thread(target=worker) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reader.close()
        assert not failures
