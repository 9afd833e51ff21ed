"""Tests for the traceroute data model and Atlas JSON round-trip."""

import pytest

from repro.atlas import (
    Hop,
    MeasurementDataset,
    Reply,
    TracerouteResult,
    parse_result,
)
from repro.netbase import MalformedRecordError


def make_result(prb_id=1, timestamp=0.0, hops=None):
    if hops is None:
        hops = (
            Hop(1, (Reply("192.168.1.1", 0.5),
                    Reply("192.168.1.1", 0.6),
                    Reply.timeout())),
            Hop(2, (Reply("60.0.0.1", 3.2),
                    Reply("60.0.0.1", 3.4),
                    Reply("60.0.0.1", 3.1))),
        )
    return TracerouteResult(
        prb_id=prb_id,
        msm_id=5001,
        timestamp=timestamp,
        src_address="192.168.1.10",
        from_address="20.0.0.5",
        dst_address="192.5.0.1",
        hops=hops,
    )


class TestReply:
    def test_timeout(self):
        reply = Reply.timeout()
        assert reply.timed_out
        assert reply.rtt_ms is None

    def test_partial_reply_rejected(self):
        with pytest.raises(ValueError):
            Reply("10.0.0.1", None)
        with pytest.raises(ValueError):
            Reply(None, 1.0)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            Reply("10.0.0.1", -1.0)


class TestHop:
    def test_responding_address_skips_timeouts(self):
        hop = Hop(1, (Reply.timeout(), Reply("10.0.0.1", 1.0)))
        assert hop.responding_address == "10.0.0.1"

    def test_all_timeouts(self):
        hop = Hop(1, (Reply.timeout(),) * 3)
        assert hop.responding_address is None
        assert hop.rtts == []

    def test_rtts_excludes_timeouts(self):
        hop = Hop(1, (Reply("x", 1.0), Reply.timeout(), Reply("x", 2.0)))
        assert hop.rtts == [1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Hop(0, ())
        with pytest.raises(ValueError):
            Hop(1, (Reply.timeout(),) * 4)


class TestTracerouteResult:
    def test_hops_must_be_ordered(self):
        hops = (
            Hop(2, (Reply("a", 1.0),)),
            Hop(1, (Reply("b", 2.0),)),
        )
        with pytest.raises(ValueError):
            make_result(hops=hops)

    def test_json_roundtrip(self):
        result = make_result()
        data = result.to_json()
        assert data["type"] == "traceroute"
        assert data["prb_id"] == 1
        assert data["result"][0]["result"][2] == {"x": "*"}
        restored = parse_result(data)
        assert restored == result

    def test_parse_result_handles_missing_rtt(self):
        data = make_result().to_json()
        # Atlas sometimes emits entries with 'from' but no 'rtt'
        # (e.g. "late" packets); these must become timeouts.
        data["result"][0]["result"][0] = {"from": "192.168.1.1"}
        restored = parse_result(data)
        assert restored.hops[0].replies[0].timed_out

    @pytest.mark.parametrize("replies", [None, 5, [5], ["junk"]])
    def test_parse_result_rejects_replies_that_are_not_objects(
        self, replies
    ):
        data = make_result().to_json()
        data["result"][0]["result"] = replies
        with pytest.raises(MalformedRecordError):
            parse_result(data)

    def test_parse_result_turns_garbage_rtts_into_timeouts(self):
        from repro.quality import DataQualityReport, DropReason

        data = make_result().to_json()
        for reply, rtt in zip(
            data["result"][1]["result"], (float("nan"), -3.0, 1e9)
        ):
            reply.update({"from": "10.0.0.1", "rtt": rtt})
        quality = DataQualityReport()
        restored = parse_result(data, quality=quality, stage="s")
        assert all(reply.timed_out for reply in restored.hops[1].replies)
        assert quality.degraded_count(DropReason.GARBAGE_RTT) == 3


class TestMeasurementDataset:
    def test_add_and_query(self):
        dataset = MeasurementDataset()
        dataset.add(make_result(prb_id=2, timestamp=10.0))
        dataset.add(make_result(prb_id=1, timestamp=0.0))
        dataset.add(make_result(prb_id=2, timestamp=20.0))
        assert len(dataset) == 3
        assert dataset.probe_ids() == [1, 2]
        assert [r.timestamp for r in dataset.for_probe(2)] == [10.0, 20.0]
        assert dataset.for_probe(99) == []

    def test_extend(self):
        dataset = MeasurementDataset()
        dataset.extend(make_result(prb_id=i) for i in range(5))
        assert len(dataset) == 5
