"""Golden regression: a frozen world's survey must never drift.

``survey_golden.json`` pins the full ``survey_to_dict`` output of the
world defined in :mod:`tests.golden.regenerate`.  Both kernel
backends are checked against it with a field-by-field diff, so a
failure names the exact AS and field that moved instead of dumping
two JSON blobs.  If the change is intentional, regenerate with::

    PYTHONPATH=src:. python -m tests.golden.regenerate
"""

import json
import math

import pytest

from repro.io import survey_to_dict

from .regenerate import (
    FIXTURE,
    PERIOD_DAYS,
    STREAMED_FIXTURE,
    SURVEY_SEED,
    _period,
    _specs,
    build_streamed_survey,
    build_survey,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def diff_fields(expected, actual, path=""):
    """Flat list of 'path: expected != actual' strings.

    Exact equality for ints/strings/structure; floats compare with
    ``math.isclose(rel_tol=1e-9)`` so the fixture survives
    library-version noise in the last bits while still catching any
    real numeric drift.
    """
    problems = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                problems.append(f"{where}: unexpected {actual[key]!r}")
            elif key not in actual:
                problems.append(f"{where}: missing "
                                f"(expected {expected[key]!r})")
            else:
                problems += diff_fields(
                    expected[key], actual[key], where
                )
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            problems.append(
                f"{path}: length {len(actual)} != {len(expected)}"
            )
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                problems += diff_fields(e, a, f"{path}[{i}]")
    elif (
        isinstance(expected, float)
        and isinstance(actual, float)
        and not isinstance(expected, bool)
    ):
        if not (
            math.isclose(expected, actual, rel_tol=1e-9)
            or (math.isnan(expected) and math.isnan(actual))
        ):
            problems.append(f"{path}: {actual!r} != {expected!r}")
    elif type(expected) is not type(actual) or expected != actual:
        problems.append(f"{path}: {actual!r} != {expected!r}")
    return problems


class TestDiffFields:
    def test_reports_differences_by_path(self):
        expected = {"a": {"b": 1.0, "c": "x"}, "d": [1, 2]}
        actual = {"a": {"b": 1.5, "c": "x"}, "d": [1, 3], "e": 0}
        problems = diff_fields(expected, actual)
        assert any(p.startswith("a.b:") for p in problems)
        assert any(p.startswith("d[1]:") for p in problems)
        assert any("unexpected" in p for p in problems)

    def test_tolerates_last_bit_float_noise(self):
        assert diff_fields({"x": 0.1}, {"x": 0.1 + 1e-17}) == []


@pytest.mark.parametrize("backend", ["reference", "vector"])
def test_survey_matches_golden_fixture(golden, backend):
    recomputed = survey_to_dict(build_survey(kernels=backend))
    problems = diff_fields(golden, recomputed)
    assert not problems, (
        f"[{backend}] survey drifted from tests/golden/"
        "survey_golden.json:\n  " + "\n  ".join(problems)
        + "\nIf intentional: PYTHONPATH=src:. "
        "python -m tests.golden.regenerate"
    )


def test_pooled_survey_matches_golden_fixture(golden):
    """Two shard workers, each simulating on one thread, reproduce
    the fixture the in-process survey does."""
    from repro.scenarios import run_survey_period

    result, _ = run_survey_period(
        _specs(), _period(), seed=SURVEY_SEED, workers=2,
    )
    recomputed = survey_to_dict(result)
    problems = diff_fields(golden, recomputed)
    assert not problems, (
        "[workers=2] survey drifted from tests/golden/"
        "survey_golden.json:\n  " + "\n  ".join(problems)
    )


@pytest.mark.parametrize("backend", ["reference", "vector"])
def test_streamed_survey_matches_golden_fixture(backend):
    """The frozen world replayed through the streaming engine must
    reproduce its own committed fixture on both backends."""
    streamed_golden = json.loads(STREAMED_FIXTURE.read_text())
    recomputed = survey_to_dict(build_streamed_survey(kernels=backend))
    problems = diff_fields(streamed_golden, recomputed)
    assert not problems, (
        f"[{backend}] streamed survey drifted from tests/golden/"
        "survey_streamed_golden.json:\n  " + "\n  ".join(problems)
        + "\nIf intentional: PYTHONPATH=src:. "
        "python -m tests.golden.regenerate"
    )


def test_streamed_golden_equals_batch_golden(golden):
    """The frozen proof of the equivalence contract: the committed
    streamed fixture is *identical* to the committed batch fixture."""
    assert json.loads(STREAMED_FIXTURE.read_text()) == golden


def test_fixture_is_self_consistent(golden):
    """Sanity on the committed JSON itself, independent of the
    pipeline: every report has the serialized shape the site exporter
    and the archive expect."""
    assert golden["period"]["days"] == PERIOD_DAYS
    assert golden["reports"], "fixture must hold at least one report"
    for asn, report in golden["reports"].items():
        assert int(asn) > 0
        assert report["severity"] in ("none", "low", "mild", "severe")
        assert report["probe_count"] >= 1
        markers = report["markers"]
        if markers is not None:
            assert set(markers) == {
                "prominent_frequency_cph",
                "prominent_amplitude_ms",
                "daily_amplitude_ms",
            }
