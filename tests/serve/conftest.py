"""Shared fixtures for the serving-layer tests."""

import datetime as dt

import pytest

from repro.core import Severity
from repro.store import SurveyArchive
from tests.store.conftest import make_ranking, make_survey


@pytest.fixture()
def archive(tmp_path):
    return make_archive(tmp_path / "arc")


def make_archive(root) -> SurveyArchive:
    """Two periods: 2019-06 (AS100 severe, AS200 low, AS300 none) and
    2019-09 (AS100 mild, AS300 none, AS400 severe)."""
    archive = SurveyArchive(root)
    ranking = make_ranking()
    archive.ingest(
        make_survey("2019-06", dt.datetime(2019, 6, 1), {
            100: Severity.SEVERE, 200: Severity.LOW,
            300: Severity.NONE,
        }),
        ranking=ranking,
    )
    archive.ingest(
        make_survey("2019-09", dt.datetime(2019, 9, 1), {
            100: Severity.MILD, 300: Severity.NONE,
            400: Severity.SEVERE,
        }),
        ranking=ranking,
    )
    return archive
