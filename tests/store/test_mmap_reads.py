"""Differential suite: mapped segment reads vs the payload oracle.

The serving contract of the segment path is byte-identity: every
archive query — point lookup, range scan, per-AS history,
severity/country indexes, anomaly reports — must return exactly the
canonical JSON the ingested ``survey_to_dict`` payloads and their
``_build_index`` indexes say it should, whether a period is a mapped
segment or a live record, after a reopen and after fsck repair.
"""

import datetime as dt
import json

import pytest

from repro.core import Severity
from repro.core.stats import churn_jaccard
from repro.io import survey_to_dict
from repro.store import ArchiveCorruptionError, ASNotFoundError, SurveyArchive
from repro.store.archive import _build_index
from repro.store.segments import SegmentReader, _TRAILER_LEN, _sha
from tests.store.conftest import make_ranking, make_survey
from tests.store.test_anomaly_artifacts import LINK, make_anomaly_payload

PERIODS = [
    ("2019-06", dt.datetime(2019, 6, 1),
     {100: Severity.SEVERE, 200: Severity.LOW, 300: Severity.NONE}),
    ("2019-09", dt.datetime(2019, 9, 1),
     {100: Severity.MILD, 300: Severity.NONE, 400: Severity.SEVERE}),
    ("2019-12", dt.datetime(2019, 12, 1),
     {100: Severity.NONE, 200: Severity.SEVERE, 300: Severity.LOW,
      400: Severity.MILD}),
    ("2020-03", dt.datetime(2020, 3, 1),
     {200: Severity.NONE, 400: Severity.SEVERE}),
]
REPORTED = ("2019-06", "2019-09")
ALL_ASNS = (100, 200, 300, 400, 999)
SEVERITIES = ("none", "low", "mild", "severe")


def survey(name):
    (start, classes), = [(s, c) for n, s, c in PERIODS if n == name]
    return make_survey(name, start, classes)


def seed_archive(root, live=()):
    """Every period committed; those named in ``live`` stay live
    records (payload + index in the manifest), the rest segments."""
    archive = SurveyArchive(root)
    ranking = make_ranking()
    for name, _, _ in PERIODS:
        if name in live:
            archive.begin_live_period(name).commit_partial(
                survey(name), ranking=ranking
            )
        else:
            archive.ingest(survey(name), ranking=ranking)
    for name in REPORTED:
        archive.ingest_anomalies(name, make_anomaly_payload(name))
    return archive


def query_snapshot(archive):
    """Canonical JSON of every read query — the equivalence surface.

    Hot-path queries (history, severity, point lookups) run first so
    they exercise the columnar/segment readers before ``get_period``
    warms the payload cache and shadows them.
    """
    snap = {}
    snap["periods"] = archive.periods()
    for asn in ALL_ASNS:
        snap[f"history:{asn}"] = archive.history(asn)
    for name in archive.periods():
        snap[f"asns:{name}"] = archive.asns(name)
        snap[f"countries:{name}"] = archive.countries(name)
        snap[f"severe:{name}"] = archive.severe_asns(name)
        snap[f"reported:{name}"] = archive.reported_asns(name)
        for severity in SEVERITIES:
            snap[f"severity:{name}:{severity}"] = (
                archive.asns_with_severity(name, severity)
            )
        for country in archive.countries(name):
            snap[f"country:{name}:{country}"] = (
                archive.asns_in_country(name, country)
            )
        for asn in ALL_ASNS:
            try:
                snap[f"get:{name}:{asn}"] = archive.get(asn, name)
            except ASNotFoundError:
                snap[f"get:{name}:{asn}"] = None
    for name in archive.periods():
        snap[f"payload:{name}"] = archive.get_period(name)
    snap["scan"] = list(archive.scan())
    snap["scan:bounded"] = list(
        archive.scan(start="2019-08-01", end="2020-01-01")
    )
    names = archive.periods()
    if "2019-06" in names and "2019-09" in names:
        snap["deltas"] = archive.deltas_between("2019-06", "2019-09")
    snap["churn"] = archive.churn_deltas()
    snap["anomalies"] = {
        name: archive.get_anomalies(name)
        for name in archive.anomaly_periods()
    }
    snap["link_history"] = archive.link_history(LINK)
    return json.dumps(snap, sort_keys=True)


def oracle_snapshot(names=tuple(name for name, _, _ in PERIODS)):
    """``query_snapshot``'s answers derived from the ingested payloads
    (``survey_to_dict``) and their indexes (``_build_index``) alone."""
    ranking = make_ranking()
    payloads = {name: survey_to_dict(survey(name)) for name in names}
    indexes = {
        name: _build_index(payload, ranking)
        for name, payload in payloads.items()
    }
    reported_periods = [name for name in names if name in REPORTED]
    anomalies = {name: make_anomaly_payload(name) for name in REPORTED}

    def reported(name):
        return sorted(
            asn for severity, asns in indexes[name]["severity"].items()
            if severity != "none" for asn in asns
        )

    def history(name, asn):
        report = payloads[name]["reports"].get(str(asn))
        if report is None:
            return {"period": name, "monitored": False, "severity": None}
        markers = report["markers"]
        return {
            "period": name, "monitored": True,
            "severity": report["severity"],
            "probe_count": report["probe_count"],
            "daily_amplitude_ms": (
                markers["daily_amplitude_ms"] if markers else 0.0
            ),
        }

    def deltas(before, after):
        old, new = set(reported(before)), set(reported(after))
        return {
            "before": before, "after": after,
            "jaccard": churn_jaccard(old, new),
            "new": sorted(new - old), "gone": sorted(old - new),
            "persisting": sorted(old & new),
        }

    def link_entry(name):
        entry = anomalies[name]["links"].get(LINK)
        if entry is None:
            return {"period": name, "observed": False,
                    "anomalous_bins": []}
        return {"period": name, "observed": True, **{
            key: entry[key] for key in (
                "samples", "bins", "median_ms", "band_ms",
                "anomalous_bins",
            )
        }}

    snap = {"periods": list(names)}
    for asn in ALL_ASNS:
        snap[f"history:{asn}"] = [history(name, asn) for name in names]
    for name in names:
        severity, country = (
            indexes[name]["severity"], indexes[name]["country"]
        )
        snap[f"asns:{name}"] = sorted(map(int, payloads[name]["reports"]))
        snap[f"countries:{name}"] = sorted(country)
        snap[f"severe:{name}"] = severity.get("severe", [])
        snap[f"reported:{name}"] = reported(name)
        for klass in SEVERITIES:
            snap[f"severity:{name}:{klass}"] = severity.get(klass, [])
        for code, asns in country.items():
            snap[f"country:{name}:{code}"] = asns
        for asn in ALL_ASNS:
            snap[f"get:{name}:{asn}"] = (
                payloads[name]["reports"].get(str(asn))
            )
        snap[f"payload:{name}"] = payloads[name]
    snap["scan"] = [(name, payloads[name]) for name in names]
    snap["scan:bounded"] = [
        (name, payloads[name]) for name in names
        if "2019-08-01" <= payloads[name]["period"]["start"] <= "2020-01-01"
    ]
    if "2019-06" in names and "2019-09" in names:
        snap["deltas"] = deltas("2019-06", "2019-09")
    snap["churn"] = [deltas(a, b) for a, b in zip(names, names[1:])]
    snap["anomalies"] = {name: anomalies[name] for name in reported_periods}
    snap["link_history"] = [link_entry(name) for name in reported_periods]
    return json.dumps(snap, sort_keys=True)


def strip_columns(path):
    """Rewrite a segment without its columns section's footer entry.

    Drops the ``columns`` footer key and re-seals the trailer, as a
    segment written before the columns section existed; blob offsets
    are untouched.
    """
    raw = path.read_bytes()
    trailer = raw[-_TRAILER_LEN:]
    footer_offset = int(trailer[:20])
    footer_length = int(trailer[20:40])
    footer = json.loads(raw[footer_offset:footer_offset + footer_length])
    assert footer.pop("columns", None) is not None
    from repro.store import canonical_json

    footer_bytes = canonical_json(footer).encode("ascii")
    new_trailer = (
        f"{footer_offset:020d}{len(footer_bytes):020d}"
        f"{_sha(footer_bytes)}"
    ).encode("ascii")
    path.write_bytes(raw[:footer_offset] + footer_bytes + new_trailer)


def flip_middle(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(raw)


class TestCompactedEquivalence:
    """Every finalized period is a packed segment from its commit on;
    its reads equal the payload oracle's."""

    def test_mmap_reads_match_json_documents(self, tmp_path):
        expected = oracle_snapshot()
        with seed_archive(tmp_path / "arc") as archive:
            assert query_snapshot(archive) == expected
        # A fresh process over the archive agrees too.
        with SurveyArchive(tmp_path / "arc") as fresh:
            assert query_snapshot(fresh) == expected
            for name, _, _ in PERIODS:
                assert fresh._reader(name).mapped

    def test_mixed_representation_matches(self, tmp_path):
        """Live records (JSON payload + index in the manifest) beside
        mapped segments, then the same periods finalized."""
        expected = oracle_snapshot()
        live = ("2019-12", "2020-03")
        root = tmp_path / "arc"
        with seed_archive(root, live=live) as archive:
            assert [
                archive.period_meta(name)["repr"] for name in live
            ] == ["live", "live"]
            assert query_snapshot(archive) == expected
        with SurveyArchive(root) as fresh:
            assert query_snapshot(fresh) == expected
            ranking = make_ranking()
            for name in live:
                fresh.begin_live_period(name).finalize(
                    survey(name), ranking=ranking
                )
        with SurveyArchive(root) as finalized:
            assert query_snapshot(finalized) == expected

    def test_segment_without_columns_is_refused(self, tmp_path):
        root = tmp_path / "arc"
        seed_archive(root).close()
        strip_columns(root / "segments" / "2019-09.seg")
        with SurveyArchive(root) as archive:
            with pytest.raises(
                ArchiveCorruptionError, match="missing a section"
            ):
                archive.asns("2019-09")
            assert archive.stats.corrupt == 1
        assert (root / "quarantine" / "segments" / "2019-09.seg").exists()

    def test_post_fsck_repair_matches(self, tmp_path):
        expected = oracle_snapshot()
        root = tmp_path / "arc"
        with seed_archive(root) as archive:
            report = archive.fsck(repair=True)
            assert report.clean
            assert query_snapshot(archive) == expected
        with SurveyArchive(root) as archive:
            assert query_snapshot(archive) == expected

    def test_fsck_repair_of_torn_segment_matches_oracle(self, tmp_path):
        root = tmp_path / "arc"
        seed_archive(root).close()
        flip_middle(root / "segments" / "2019-09.seg")
        with SurveyArchive(root) as archive:
            report = archive.fsck(repair=True)
            assert report.repair_count >= 1
            assert "2019-09" not in archive.periods()
            repaired = query_snapshot(archive)
        assert repaired == oracle_snapshot(("2019-06", "2019-12", "2020-03"))
        with SurveyArchive(root) as archive:
            assert query_snapshot(archive) == repaired


class TestColumnIntegrity:
    def make_segment(self, tmp_path):
        root = tmp_path / "arc"
        seed_archive(root).close()
        return root / "segments" / "2019-06.seg"

    def test_column_entry_values(self, tmp_path):
        path = self.make_segment(tmp_path)
        with SegmentReader(path) as reader:
            assert reader.mapped
            entry = reader.column_entry(100)
            assert entry == {
                "severity": "severe", "probe_count": 5,
                "daily_amplitude_ms": 4.5,
            }
            assert reader.column_entry(999) is None
            assert reader.asns_with_severity("low") == [200]
            assert reader.asns_with_severity("nonesuch") == []
            assert reader.reported_asns() == [100, 200]

    def test_corrupt_columns_fail_checksum(self, tmp_path):
        path = self.make_segment(tmp_path)
        with SegmentReader(path) as probe:
            meta = probe._footer["columns"]
        raw = bytearray(path.read_bytes())
        raw[int(meta["offset"])] ^= 0xFF
        path.write_bytes(raw)
        # The torn byte sits between the blobs and the footer, so the
        # segment still opens and point lookups still verify...
        with SegmentReader(path) as reader:
            assert reader.get(100) is not None
            # ...but the columns section refuses to serve.
            with pytest.raises(ArchiveCorruptionError):
                reader.columns()

    def test_columns_match_payload(self, tmp_path):
        path = self.make_segment(tmp_path)
        reports = survey_to_dict(survey("2019-06"))["reports"]
        ordered = sorted(reports, key=int)
        with SegmentReader(path) as reader:
            columns = reader.columns()
            codes = reader.severity_codes()
            assert [int(a) for a in columns["asn"]] == list(
                map(int, ordered)
            )
            assert [int(n) for n in columns["probe_count"]] == [
                reports[a]["probe_count"] for a in ordered
            ]
            assert [codes[int(c)] for c in columns["severity"]] == [
                reports[a]["severity"] for a in ordered
            ]
            for asn in ALL_ASNS:
                report = reports.get(str(asn))
                want = None if report is None else {
                    "severity": report["severity"],
                    "probe_count": report["probe_count"],
                    "daily_amplitude_ms": (
                        (report["markers"] or {}).get(
                            "daily_amplitude_ms", 0.0
                        )
                    ),
                }
                assert reader.column_entry(asn) == want

    def test_close_tolerates_outstanding_views(self, tmp_path):
        path = self.make_segment(tmp_path)
        reader = SegmentReader(path)
        columns = reader.columns()
        held = columns["asn"]
        reader.close()  # must not raise despite the live view
        assert held[0] == 100


class TestFallback:
    """There is no second copy to fall back to: a torn segment raises
    and is quarantined, never served."""

    def test_no_json_left_still_raises(self, tmp_path):
        root = tmp_path / "arc"
        seed_archive(root).close()
        seg = root / "segments" / "2019-06.seg"
        flip_middle(seg)
        with SurveyArchive(root) as archive:
            with pytest.raises(ArchiveCorruptionError):
                archive.get_period("2019-06")
        assert not seg.exists()
        assert (root / "quarantine" / "segments" / "2019-06.seg").exists()
