"""Property-based tests on cache keys and entry integrity.

The digest must be a pure function of fingerprint *content*: dict
insertion order and cache-directory location never reach it, while any
change to a parameter, the survey fingerprint, or the code salt
yields a different key.  Entries on disk are checksummed: a corrupted
or truncated entry is detected, quarantined and recomputed — never
silently served.
"""

import datetime as dt
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas import ProbeVersion
from repro.core.classify import ClassificationThresholds
from repro.netbase import AccessTechnology
from repro.parallel import (
    ResultCache,
    fingerprint_digest,
    survey_as_fingerprint,
)
from repro.store import canonical_json
from repro.timebase import MeasurementPeriod

# -- strategies ------------------------------------------------------------

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
fingerprints = st.dictionaries(
    st.text(min_size=1, max_size=8), json_values,
    min_size=1, max_size=6,
)


def reordered(value):
    """The same JSON value with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {
            key: reordered(value[key]) for key in reversed(list(value))
        }
    if isinstance(value, list):
        return [reordered(item) for item in value]
    return value


# -- digest properties -----------------------------------------------------


class TestDigestProperties:
    @given(fingerprint=fingerprints)
    def test_insertion_order_never_reaches_digest(self, fingerprint):
        shuffled = reordered(fingerprint)
        assert fingerprint_digest(shuffled) == fingerprint_digest(
            fingerprint
        )
        assert canonical_json(shuffled) == canonical_json(fingerprint)

    @given(fingerprint=fingerprints, data=st.data())
    def test_any_leaf_change_changes_digest(self, fingerprint, data):
        key = data.draw(
            st.sampled_from(sorted(fingerprint)), label="mutated key"
        )
        mutated = dict(fingerprint)
        mutated[key] = {"mutated": True, "was": repr(fingerprint[key])}
        assert fingerprint_digest(mutated) != fingerprint_digest(
            fingerprint
        )

    @given(fingerprint=fingerprints, tmp=st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_cache_location_never_reaches_key(self, fingerprint, tmp):
        here = ResultCache(f"/tmp/cache-a-{tmp}")
        there = ResultCache(f"/tmp/cache-b-{tmp}/nested/deeper")
        assert here.key(fingerprint) == there.key(fingerprint)

    @given(fingerprint=fingerprints)
    @settings(max_examples=25)
    def test_salt_always_changes_key(self, fingerprint):
        v1 = ResultCache("/tmp/c", salt="repro-pipeline-v1")
        v2 = ResultCache("/tmp/c", salt="repro-pipeline-v2")
        assert v1.key(fingerprint) != v2.key(fingerprint)


# -- fingerprint-recipe sensitivity ----------------------------------------


def base_survey_kwargs():
    spec = SimpleNamespace(
        asn=64500, name="ISP", country="JP", subscribers=100_000,
        intent="mild", technology=AccessTechnology.FTTH_PPPOE_LEGACY,
        peak_utilization=0.9, service_time_ms=None, probe_count=4,
        lockdown_daytime_boost=0.1, lockdown_evening_boost=0.2,
    )
    deployment = SimpleNamespace(
        version_weights={ProbeVersion.V3: 1.0},
        outage_rate_per_day=0.01,
        reconnect_rate_per_day=0.05,
    )
    return dict(
        asn=64500, spec=spec, spec_index=3,
        probe_pairs=[(10, 3), (11, 3), (12, 1)],
        period=MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 15),
        world_seed=7, lockdown=False,
        thresholds=ClassificationThresholds(),
        max_attempts=2, deployment=deployment, bin_seconds=1800,
    )


class TestSurveyFingerprintSensitivity:
    # Every entry rewrites one keyword of base_survey_kwargs(); each
    # must move the digest — a missed input here is a stale-cache bug.
    PERTURBATIONS = {
        "world_seed": 8,
        "lockdown": True,
        "spec_index": 4,
        "max_attempts": 3,
        "bin_seconds": 900,
        "probe_pairs": [(10, 3), (11, 3), (12, 3)],
        "thresholds": ClassificationThresholds(severe_ms=4.0),
        "period": MeasurementPeriod(
            "2019-09b", dt.datetime(2019, 9, 2), 15
        ),
    }

    @pytest.mark.parametrize("field", sorted(PERTURBATIONS))
    def test_parameter_reaches_digest(self, field):
        kwargs = base_survey_kwargs()
        baseline = fingerprint_digest(survey_as_fingerprint(**kwargs))
        kwargs[field] = self.PERTURBATIONS[field]
        assert fingerprint_digest(
            survey_as_fingerprint(**kwargs)
        ) != baseline

    @pytest.mark.parametrize("field,value", [
        ("peak_utilization", 0.91),
        ("probe_count", 5),
        ("technology", AccessTechnology.CABLE),
        ("lockdown_evening_boost", 0.25),
    ])
    def test_spec_field_reaches_digest(self, field, value):
        kwargs = base_survey_kwargs()
        baseline = fingerprint_digest(survey_as_fingerprint(**kwargs))
        setattr(kwargs["spec"], field, value)
        assert fingerprint_digest(
            survey_as_fingerprint(**kwargs)
        ) != baseline


# -- entry integrity -------------------------------------------------------


class TestEntryIntegrity:
    PAYLOAD = {"report": {"severity": "mild"}, "quality": {}}

    def put_one(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key({"kind": "test", "asn": 64500})
        cache.put(key, self.PAYLOAD)
        return cache, key

    @given(data=st.data())
    @settings(max_examples=30)
    def test_truncated_entry_quarantined_never_served(
        self, data, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp("cache-trunc")
        cache, key = self.put_one(tmp_path)
        path = cache.path_for(key)
        raw = path.read_bytes()
        cut = data.draw(
            st.integers(0, len(raw) - 1), label="truncation offset"
        )
        path.write_bytes(raw[:cut])

        assert cache.get(key) is None, "truncated entry was served"
        assert cache.stats.corrupt == 1
        assert not path.exists()
        quarantined = list((cache.directory / "quarantine").iterdir())
        assert [q.name for q in quarantined] == [path.name]

    def test_checksum_mismatch_quarantined(self, tmp_path):
        cache, key = self.put_one(tmp_path)
        path = cache.path_for(key)
        entry = json.loads(path.read_text())
        entry["payload"]["report"]["severity"] = "severe"  # tampered
        path.write_text(json.dumps(entry))

        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert (cache.directory / "quarantine" / path.name).exists()

    def test_missing_payload_quarantined(self, tmp_path):
        cache, key = self.put_one(tmp_path)
        cache.path_for(key).write_text(json.dumps({"checksum": "x"}))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1

    def test_recompute_after_corruption(self, tmp_path):
        """A quarantined entry is rewritten by the next run and then
        served intact."""
        cache, key = self.put_one(tmp_path)
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None
        cache.put(key, self.PAYLOAD)
        assert cache.get(key) == self.PAYLOAD
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "corrupt": 1, "writes": 2,
        }

    def test_roundtrip_and_stats(self, tmp_path):
        cache, key = self.put_one(tmp_path)
        assert cache.get(key) == self.PAYLOAD
        assert cache.get("0" * 64) is None  # plain miss, not corrupt
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "corrupt": 0, "writes": 1,
        }


class TestEndToEndRecompute:
    def test_corrupted_entry_recomputed_identically(self, tmp_path):
        """Survey with a cache, corrupt one entry on disk, re-run:
        the damaged AS is recomputed (not served) and the survey is
        byte-identical to the cold run."""
        from repro.io import survey_to_dict
        from repro.scenarios import generate_specs, run_survey_period

        specs = generate_specs(num_ases=3, num_countries=2, seed=5)
        period = MeasurementPeriod("2019-09", dt.datetime(2019, 9, 2), 2)
        cache = ResultCache(tmp_path / "cache")
        cold, _ = run_survey_period(
            specs, period, seed=7, workers=1, cache=cache,
        )
        assert cache.stats.writes == len(cold.reports) > 0

        entries = sorted(
            path
            for path in cache.directory.rglob("*.json")
            if path.parent.name != "quarantine"
        )
        assert len(entries) == len(cold.reports)
        entries[0].write_text(entries[0].read_text()[:40])

        before = cache.stats.as_dict()
        warm, _ = run_survey_period(
            specs, period, seed=7, workers=1, cache=cache,
        )
        after = cache.stats.as_dict()
        assert after["corrupt"] == before["corrupt"] + 1
        assert after["writes"] == before["writes"] + 1
        assert after["hits"] == before["hits"] + len(entries) - 1
        assert canonical_json(survey_to_dict(warm)) == canonical_json(
            survey_to_dict(cold)
        )
