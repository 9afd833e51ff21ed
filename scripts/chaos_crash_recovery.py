#!/usr/bin/env python
"""Crash-recovery chaos leg: SIGKILL a commit at every step.

The CI contract behind DESIGN.md §12 and §13: a writer killed at ANY
point of a commit leaves the archive — after recovery-on-open — in
exactly the pre-commit or post-commit state, with ``repro store
fsck`` finding nothing to complain about.  Four commits are swept: an
``ingest``, an anomaly-report attach, a live ``commit_partial``
(revision 1 -> 2) and a live ``finalize`` (revision 1 -> a packed
segment).  Each writes its files (the period's segment, the anomaly
report), then the manifest record in place into the older slot (the
commit point), then retires the other slot; the tears of the ingest's
and the finalize's segment write must recover like any other.

Unlike the in-process property test (tests/store/test_journal.py),
every crash here is a genuine ``SIGKILL`` delivered to a separate
writer process: no ``finally`` blocks, no unwound stack, just a dead
process and whatever bytes reached the disk.  The crash schedule is
content-keyed — op indexes come from a dry-run enumeration of the
protocol, tear offsets of every write (the in-place slot write
included) are derived from a digest of the op sequence — so reruns
are reproducible without hardcoding the protocol's shape.

Usage::

    PYTHONPATH=src python scripts/chaos_crash_recovery.py [workdir]

Exits 0 when every crash point recovered cleanly, 1 otherwise.
"""

import datetime as dt
import hashlib
import json
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.core import Severity  # noqa: E402
from repro.faults import RecordingIO  # noqa: E402
from repro.store import (  # noqa: E402
    EXIT_CLEAN,
    SurveyArchive,
    read_manifest,
    run_fsck,
)
from repro.store.manifest import SLOT_NAMES  # noqa: E402

# The child re-runs one scenario's commit under CrashingIO in kill mode.
CHILD = textwrap.dedent("""
    import sys
    sys.path.insert(0, {src!r})
    from repro.faults import CrashingIO, CrashPlan
    from repro.store import SurveyArchive
    sys.path.insert(0, {here!r})
    from chaos_crash_recovery import SCENARIOS

    io = CrashingIO(CrashPlan({op}, byte_offset={offset}, mode="kill"))
    SCENARIOS[{name!r}].act(SurveyArchive({root!r}, io=io))
    print("survived", flush=True)  # the plan never fired: a bug
""")


def make_survey(name, top=Severity.SEVERE):
    """One synthetic period (content the checks verify); ``top`` is
    AS100's class, so two revisions of a period can differ."""
    from repro.core import Classification, SurveyResult
    from repro.core.spectral import SpectralMarkers
    from repro.core.survey import ASReport
    from repro.timebase import MeasurementPeriod

    starts = {"2019-03": dt.datetime(2019, 3, 1),
              "2019-06": dt.datetime(2019, 6, 1)}
    result = SurveyResult(
        period=MeasurementPeriod(name, starts[name], 15)
    )
    for asn, severity, amplitude in (
        (100, top, 4.5),
        (200, Severity.LOW, 0.7),
        (300, Severity.NONE, 0.0),
    ):
        markers = None
        if amplitude:
            markers = SpectralMarkers(
                prominent_frequency_cph=1 / 24,
                prominent_amplitude_ms=amplitude,
                daily_amplitude_ms=amplitude,
            )
        result.reports[asn] = ASReport(
            asn=asn, probe_count=5,
            classification=Classification(severity, markers),
        )
    return result


def make_ranking():
    from repro.apnic import EyeballRanking
    from repro.netbase import ASInfo, ASRegistry, ASRole

    registry = ASRegistry()
    for asn, name, cc, subs in (
        (100, "Big", "JP", 1_000_000),
        (200, "Mid", "US", 50_000),
        (300, "Small", "DE", 5_000),
    ):
        registry.register(ASInfo(asn, name, cc, ASRole.EYEBALL,
                                 subscribers=subs))
    return EyeballRanking.from_registry(registry)


def archive_state(root):
    """The committed manifest, read through the slot reader, and the
    files beside the slots: what pre/post comparison is made of."""
    files = sorted(
        str(p.relative_to(root))
        for p in root.rglob("*")
        if p.is_file() and "quarantine" not in p.parts
        and p.name not in SLOT_NAMES
    )
    return {"manifest": read_manifest(root), "files": files}


class Scenario:
    """One commit to crash: how to seed it, run it, and judge it."""

    def __init__(self, name, june, act, check):
        self.name = name
        self.june = june      # seed 2019-06: None, "live" or "segment"
        self.act = act        # archive -> None: the commit under test
        self.check = check    # (archive, committed) -> problem or None

    def seed(self, root):
        """The pre-commit archive: 2019-03 committed, maybe 2019-06
        live at revision 1 or committed as its segment."""
        archive = SurveyArchive(root)
        archive.ingest(make_survey("2019-03"), ranking=make_ranking())
        if self.june == "live":
            archive.begin_live_period("2019-06").commit_partial(
                make_survey("2019-06"), ranking=make_ranking()
            )
        elif self.june == "segment":
            archive.ingest(make_survey("2019-06"), ranking=make_ranking())
        archive.close()


def _ingest(archive):
    archive.ingest(make_survey("2019-06"), ranking=make_ranking())


def _check_ingest(archive, committed):
    if "2019-03" not in archive:
        return "recovery damaged the previously committed period"
    if not committed:
        if "2019-06" in archive:
            return "uncommitted period visible after rollback"
        return None
    if "2019-06" not in archive:
        return "committed period missing after recovery"
    if archive.get(100, "2019-06")["severity"] != "severe":
        return "committed period content wrong after recovery"
    return None


def _commit_partial(archive):
    archive.begin_live_period("2019-06").commit_partial(
        make_survey("2019-06", Severity.MILD), ranking=make_ranking()
    )


def _finalize(archive):
    archive.begin_live_period("2019-06").finalize(
        make_survey("2019-06", Severity.MILD), ranking=make_ranking()
    )


def _check_live(want_committed):
    """Judge a live commit: the previous revision 1 or ``want``."""

    def check(archive, committed):
        meta = archive.period_meta("2019-06")
        want = want_committed if committed else {
            "repr": "live", "revision": 1,
        }
        got = {key: meta.get(key) for key in want}
        if got != want:
            return f"manifest entry {got}, expected {want}"
        severity = "mild" if committed else "severe"
        if archive.get(100, "2019-06")["severity"] != severity:
            return "period content is neither revision's"
        if archive.asns_in_country("2019-06", "JP") != [100]:
            return "country index lost"
        return None

    return check


def _attach(archive):
    archive.ingest_anomalies("2019-06", {
        "kind": "anomaly-report", "period": "2019-06",
        "links_total": 0, "links": {}, "events": [],
    })


def _check_attach(archive, committed):
    if archive.get(100, "2019-06")["severity"] != "severe":
        return "recovery damaged the period the report belongs to"
    reported = archive.anomaly_periods() == ["2019-06"]
    if reported != committed:
        return f"anomaly report {'missing' if committed else 'visible'}"
    if committed and archive.get_anomalies("2019-06")["links"] != {}:
        return "committed report content wrong after recovery"
    return None


SCENARIOS = {
    "ingest": Scenario("ingest", None, _ingest, _check_ingest),
    "anomaly-attach": Scenario(
        "anomaly-attach", "segment", _attach, _check_attach,
    ),
    "commit-partial": Scenario(
        "commit-partial", "live", _commit_partial,
        _check_live({"repr": "live", "revision": 2}),
    ),
    "finalize": Scenario(
        "finalize", "live", _finalize,
        _check_live({"repr": "segment", "revision": None}),
    ),
}


def crash_schedule(work, scenario):
    """Content-keyed (op, offset) crash points for one commit."""
    root = work / f"record-{scenario.name}"
    scenario.seed(root)
    io = RecordingIO()
    scenario.act(SurveyArchive(root, io=io))
    ops = io.ops

    # The commit point: the op landing the new record in a slot (an
    # in-place rewrite, or the rename creating the slot), not the
    # one-byte retire after it.
    commit_op = max(
        i for i, op in enumerate(ops)
        if Path(op.path).name in SLOT_NAMES
        and (op.kind == "replace" or op.size > 1)
    )
    # Key the schedule on what the protocol *is* (op kinds, target
    # names, payload sizes), not on run-varying tmp-name PIDs.
    digest = hashlib.sha256(
        json.dumps([
            (op.kind,
             re.sub(r"^\.|\.\d+\.tmp$", "", Path(op.path).name),
             op.size)
            for op in ops
        ]).encode()
    ).digest()
    cases = []
    for index, op in enumerate(ops):
        if op.kind in ("write", "write-in-place") and op.size:
            # Tear offset keyed on the op sequence itself: stable
            # across reruns, different per op, never hardcoded.
            offset = digest[index % len(digest)] % op.size
            cases.append((index, offset))
        cases.append((index, None))
    return cases, commit_op


def run_case(work, scenario, case_id, op_index, offset, commit_op,
             pre_state, post_state):
    root = work / f"case-{scenario.name}-{case_id}"
    scenario.seed(root)
    script = CHILD.format(
        src=str(REPO / "src"), here=str(REPO / "scripts"),
        root=str(root), op=op_index, offset=offset, name=scenario.name,
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != -signal.SIGKILL:
        return (
            f"writer was not SIGKILLed (rc={proc.returncode}): "
            f"{proc.stderr.strip() or proc.stdout.strip()}"
        ), None

    reopened = SurveyArchive(root)  # recovery-on-open runs here
    state = archive_state(root)
    committed = state == post_state
    if not committed and state != pre_state:
        return "neither pre- nor post-commit state after crash", None
    # A tear of the commit op itself may land either way: on post
    # only when the bytes it missed already held the new values.
    if op_index != commit_op and committed != (op_index > commit_op):
        return (
            f"{'post' if committed else 'pre'}-commit state after a "
            f"crash {'before' if op_index < commit_op else 'after'} "
            "the commit op"
        ), committed
    problem = scenario.check(reopened, committed)
    if problem:
        return problem, committed
    report = run_fsck(root, repair=False)
    if report.exit_code != EXIT_CLEAN:
        return "fsck not clean: " + "; ".join(
            f.detail for f in report.findings
        ), committed
    shutil.rmtree(root)
    return None, committed


def sweep(work, scenario):
    """SIGKILL one scenario's commit at every crash point."""
    cases, commit_op = crash_schedule(work, scenario)
    print(
        f"{scenario.name} protocol: {len(cases)} crash points "
        f"(slot commit at op {commit_op})"
    )

    # Reference states the survivors are compared against.
    pre_root = work / f"ref-pre-{scenario.name}"
    scenario.seed(pre_root)
    pre_state = archive_state(pre_root)
    post_root = work / f"ref-post-{scenario.name}"
    scenario.seed(post_root)
    post = SurveyArchive(post_root)
    scenario.act(post)
    post.close()
    post_state = archive_state(post_root)

    failures = []
    for case_id, (op_index, offset) in enumerate(cases):
        problem, committed = run_case(
            work, scenario, case_id, op_index, offset, commit_op,
            pre_state, post_state,
        )
        where = f"op {op_index}" + (
            f" offset {offset}" if offset is not None else ""
        )
        verdict = problem or (
            "post-commit state" if committed else "pre-commit state"
        )
        print(f"  SIGKILL at {where}: {verdict}")
        if problem:
            failures.append((scenario.name, where, problem))
    return len(cases), failures


def main(argv):
    work = Path(
        argv[1] if len(argv) > 1
        else tempfile.mkdtemp(prefix="chaos-crash-")
    )
    work.mkdir(parents=True, exist_ok=True)

    total, failures = 0, []
    for scenario in SCENARIOS.values():
        count, failed = sweep(work, scenario)
        total += count
        failures.extend(failed)

    if failures:
        print(f"\nFAIL: {len(failures)}/{total} crash points "
              "did not recover cleanly")
        return 1
    print(f"\nOK: {total} SIGKILLed writers, every archive "
          "recovered to exactly pre- or post-commit, fsck clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
