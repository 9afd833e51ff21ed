"""Shared fixtures for the survey-archive tests."""

import datetime as dt
from pathlib import Path

import pytest

from repro.apnic import EyeballRanking
from repro.core import Classification, Severity, SurveyResult
from repro.core.spectral import SpectralMarkers
from repro.core.survey import ASFailure, ASReport
from repro.netbase import ASInfo, ASRegistry, ASRole
from repro.store import read_manifest
from repro.store.manifest import HEADER, SLOT_NAMES
from repro.timebase import MeasurementPeriod


def make_report(asn, severity, amplitude=0.0, probes=5):
    markers = None
    if severity is not Severity.NONE or amplitude:
        markers = SpectralMarkers(
            prominent_frequency_cph=1 / 24,
            prominent_amplitude_ms=amplitude,
            daily_amplitude_ms=amplitude,
        )
    return ASReport(
        asn=asn, probe_count=probes,
        classification=Classification(severity, markers),
    )


def make_survey(name, start, classes):
    """One synthetic period; ``classes`` maps asn -> Severity."""
    result = SurveyResult(
        period=MeasurementPeriod(name, start, 15)
    )
    amplitudes = {
        Severity.NONE: 0.0, Severity.LOW: 0.7,
        Severity.MILD: 2.5, Severity.SEVERE: 4.5,
    }
    for asn, severity in classes.items():
        result.reports[asn] = make_report(
            asn, severity, amplitudes[severity]
        )
    return result


def make_ranking():
    registry = ASRegistry()
    registry.register(ASInfo(100, "Big", "JP", ASRole.EYEBALL,
                             subscribers=1_000_000))
    registry.register(ASInfo(200, "Mid", "US", ASRole.EYEBALL,
                             subscribers=50_000))
    registry.register(ASInfo(300, "Small", "DE", ASRole.EYEBALL,
                             subscribers=5_000))
    registry.register(ASInfo(400, "Tiny", "JP", ASRole.EYEBALL,
                             subscribers=1_000))
    return EyeballRanking.from_registry(registry)


@pytest.fixture()
def ranking():
    return make_ranking()


@pytest.fixture()
def survey_june():
    result = make_survey(
        "2019-06", dt.datetime(2019, 6, 1),
        {100: Severity.SEVERE, 200: Severity.LOW, 300: Severity.NONE},
    )
    result.failures[900] = ASFailure(
        asn=900, error="EmptyPopulationError",
        message="no probes to aggregate", attempts=2,
    )
    result.quality.ingest("survey", n=4)
    return result


@pytest.fixture()
def survey_september():
    return make_survey(
        "2019-09", dt.datetime(2019, 9, 1),
        {100: Severity.MILD, 300: Severity.NONE, 400: Severity.SEVERE},
    )


# -- crash-matrix helpers ---------------------------------------------------


def archive_state(root):
    """Everything that defines archive content, as comparable data: the
    committed manifest, read through the slot reader, and every file
    beside the slots (whose bytes differ between equal states: a crash
    before the retire leaves the superseded record valid but older)."""
    files = sorted(
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and "quarantine" not in p.parts
        and p.name not in SLOT_NAMES
    )
    return {"manifest": read_manifest(root), "files": files}


def commit_op(ops):
    """Index of a recorded commit's commit point: the op that lands the
    new manifest record in a slot (an in-place rewrite, or the rename
    that creates the slot), never the one-byte retire after it."""
    return max(
        index for index, op in enumerate(ops)
        if Path(op.path).name in SLOT_NAMES
        and (op.kind == "replace" or op.size > 1)
    )


def crash_cases(ops):
    """``(op index, tear offset)`` crash points of a recorded commit.

    Every op; every write torn with nothing written, mid-write and all
    but its last byte; an in-place slot write also torn at every byte
    of its header, where a torn prefix splices new and old fields.
    """
    cases = []
    for index, op in enumerate(ops):
        if op.kind not in ("write", "write-in-place"):
            cases.append((index, None))
            continue
        offsets = {0, op.size // 2, op.size - 1}
        if op.kind == "write-in-place":
            offsets.update(range(min(op.size, HEADER.size + 1)))
        cases.extend((index, offset) for offset in sorted(offsets))
    return cases


def settled(state, pre, post, op_index, flip):
    """True when a crash at ``op_index`` recovered to ``post``; fails
    unless ``state`` is exactly ``pre`` or ``post``.

    A crash before the commit op (``flip``) must land on ``pre`` and
    one after it on ``post``.  A tear of the commit op itself lands on
    ``post`` only when the bytes it did not write already held the new
    values (the slot's previous record ended the same way), so there
    either state is correct.
    """
    committed = state == post
    assert committed or state == pre, (
        f"crash at op {op_index}: neither pre- nor post-commit state"
    )
    if op_index != flip:
        assert committed == (op_index > flip), (
            f"crash at op {op_index}: expected "
            f"{'post' if op_index > flip else 'pre'}-commit state"
        )
    return committed
