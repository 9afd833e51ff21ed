"""Tests for the top-level CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_survey_defaults(self):
        args = build_parser().parse_args(["survey"])
        assert args.ases == 150
        assert not args.covid

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "out.jsonl", "--probes", "2"]
        )
        assert args.out == "out.jsonl"
        assert args.probes == 2


class TestInfo:
    def test_prints_version(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "IMC 2020" in out


class TestSimulateAndClassify:
    def test_simulate_writes_jsonl_and_rib(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        rib = tmp_path / "rib.txt"
        code = main([
            "simulate", str(out),
            "--probes", "2", "--days", "1",
            "--rib-out", str(rib),
        ])
        assert code == 0
        assert out.exists()
        assert rib.exists()
        assert "wrote" in capsys.readouterr().out
        # JSONL rows parse back as Atlas results.
        import json

        from repro.atlas import parse_result

        first = out.read_text().splitlines()[0]
        result = parse_result(json.loads(first))
        assert result.hops

    def test_simulate_stream_is_live_like_for_raclette(
        self, tmp_path, capsys
    ):
        """simulate writes results in timestamp order, so raclette on
        the clean stream drops nothing as stale and sees congestion."""
        import json

        from repro.quality import DropReason
        from repro.raclette.__main__ import build_parser, monitor_stream
        from repro.raclette.alerts import ListSink

        out = tmp_path / "campaign.jsonl"
        rib = tmp_path / "rib.txt"
        assert main([
            "simulate", str(out), "--probes", "4", "--days", "2",
            "--seed", "0", "--rib-out", str(rib),
        ]) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        stamps = [record["timestamp"] for record in records]
        assert stamps == sorted(stamps)
        assert len({record["prb_id"] for record in records}) == 4

        sink = ListSink()
        monitor = monitor_stream(
            build_parser().parse_args([str(out), "--rib", str(rib)]),
            sink=sink,
        )
        assert monitor.results_seen == len(records)
        assert monitor.quality.dropped_count(DropReason.STALE_RECORD) == 0
        assert sink.starts()

    def test_classify_roundtrip(self, tmp_path, capsys):
        """simulate -> binned dataset -> classify via the CLI."""
        import datetime as dt

        from repro.atlas import AtlasPlatform, ProbeVersion
        from repro.io import save_lastmile
        from repro.netbase import AccessTechnology, ASInfo, ASRole
        from repro.timebase import MeasurementPeriod
        from repro.topology import ProvisioningPolicy, World

        world = World(seed=9)
        isp = world.add_isp(
            ASInfo(
                64500, "X", "JP", ASRole.EYEBALL,
                access_technologies=[
                    AccessTechnology.FTTH_PPPOE_LEGACY
                ],
            ),
            provisioning=ProvisioningPolicy(
                peak_utilization={
                    AccessTechnology.FTTH_PPPOE_LEGACY: 0.96
                },
                device_spread=0.005,
                load_jitter_std=0.005,
            ),
        )
        world.add_default_targets()
        world.finalize()
        platform = AtlasPlatform(world)
        probes = platform.deploy_probes_on_isp(
            isp, 4, version=ProbeVersion.V3
        )
        # Two weeks: Welch segment averaging needs several days for
        # the daily fundamental to dominate its harmonics.
        period = MeasurementPeriod(
            "cli-test", dt.datetime(2019, 9, 2), 14
        )
        dataset = platform.run_period_binned(period, probes)
        base = tmp_path / "lastmile"
        save_lastmile(dataset, base)

        assert main(["classify", str(base)]) == 0
        out = capsys.readouterr().out
        assert "AS64500" in out
        assert any(
            word in out for word in ("LOW", "MILD", "SEVERE")
        )

    def test_classify_empty_dataset(self, tmp_path, capsys):
        import datetime as dt

        from repro.core import LastMileDataset
        from repro.io import save_lastmile
        from repro.timebase import MeasurementPeriod, TimeGrid

        grid = TimeGrid(
            MeasurementPeriod("empty", dt.datetime(2019, 9, 2), 1)
        )
        base = tmp_path / "empty"
        save_lastmile(LastMileDataset(grid=grid), base)
        assert main(["classify", str(base)]) == 1


class TestSurveyCommand:
    def test_small_survey_exports_site(self, tmp_path, capsys):
        out = tmp_path / "site"
        code = main([
            "survey", "--ases", "20", "--countries", "5",
            "--periods", "1", "--out", str(out),
        ])
        assert code == 0
        assert (out / "surveys.json").exists()
        assert (out / "index.md").exists()
        assert "exported" in capsys.readouterr().out


class TestKernelsFlag:
    def test_parser_rejects_kernels_flag(self):
        """The backend is not a CLI choice: every subcommand runs the
        default kernels, which equal the reference by contract."""
        for argv in (
            ["survey"], ["classify", "x"], ["stream"], ["anomaly"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--kernels", "vector"])


class TestTokyoCommand:
    def test_prints_digests(self, capsys):
        code = main(["tokyo", "--client-scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ISP_A" in out and "Spearman" in out


class TestObsFlags:
    def test_obs_flags_parse(self):
        args = build_parser().parse_args([
            "survey", "--trace", "--metrics-out", "m.json",
            "--log-jsonl", "events.jsonl",
        ])
        assert args.trace
        assert args.metrics_out == "m.json"
        assert args.log_jsonl == "events.jsonl"

    def test_obs_report_defaults(self):
        args = build_parser().parse_args(["obs", "report"])
        assert args.path == "metrics.json"
        assert not args.prometheus

    def test_survey_with_metrics_out(self, tmp_path, capsys):
        report_path = tmp_path / "metrics.json"
        code = main([
            "survey", "--ases", "12", "--countries", "4",
            "--periods", "1", "--out", str(tmp_path / "site"),
            "--trace", "--metrics-out", str(report_path),
            "--log-jsonl", str(tmp_path / "events.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "survey-period" in out  # the printed trace tree

        import json

        report = json.loads(report_path.read_text())
        metrics = report["metrics"]
        for name in (
            "pipeline_items_in_total",
            "pipeline_items_out_total",
            "pipeline_duration_seconds",
            "quality_ingested_total",
        ):
            assert name in metrics, name
        stages = {
            sample["labels"]["stage"]
            for sample in metrics["pipeline_duration_seconds"]["samples"]
        }
        assert {
            "survey-period", "load", "simulate", "classify-dataset",
            "filter", "aggregate", "spectral",
        } <= stages
        # Structured events landed in the JSONL sink.
        events = [
            json.loads(line) for line in
            (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert any(e["event"] == "classify-done" for e in events)

        # The saved report renders back through `repro obs report`.
        assert main(["obs", "report", str(report_path)]) == 0
        rendered = capsys.readouterr().out
        assert "== trace ==" in rendered
        assert "== metrics ==" in rendered
        assert main([
            "obs", "report", str(report_path), "--prometheus",
        ]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE pipeline_items_in_total counter" in prom

    def test_survey_trace_shape(self, tmp_path, capsys):
        # One survey-period root.  The population is filtered before
        # anything is simulated, so `simulate` runs inside
        # classify-dataset, after `filter`.  The simulator's thread
        # pool adds a `threads` attribute and nothing else: no pool
        # thread opens a span of its own (it would surface as an extra
        # root).
        import json

        from repro.atlas.platform import usable_cpus

        report_path = tmp_path / "metrics.json"
        assert main([
            "survey", "--ases", "6", "--countries", "2",
            "--periods", "1", "--out", str(tmp_path / "site"),
            "--trace", "--metrics-out", str(report_path),
        ]) == 0
        capsys.readouterr()
        roots = json.loads(report_path.read_text())["trace"]

        def paths(spans, prefix=()):
            for span in spans:
                path = prefix + (span["name"],)
                yield path, span
                yield from paths(span.get("children", []), path)

        found = list(paths(roots))
        assert [span["name"] for span in roots] == ["survey-period"]
        assert {path for path, _ in found} == {
            ("survey-period",),
            ("survey-period", "load"),
            ("survey-period", "classify-dataset"),
            ("survey-period", "classify-dataset", "filter"),
            ("survey-period", "classify-dataset", "simulate"),
            ("survey-period", "classify-dataset", "classify"),
            ("survey-period", "classify-dataset", "classify", "aggregate"),
            ("survey-period", "classify-dataset", "population-signals"),
            ("survey-period", "classify-dataset", "spectral"),
        }
        (simulate,) = [span for path, span in found if path[-1] == "simulate"]
        attrs = simulate["attrs"]
        assert attrs["threads"] == min(usable_cpus(), attrs["probes"])

    def test_stream_trace_shape(self, tmp_path, capsys):
        # One root, `stream`; its children say where a run's time went:
        # load (with the simulator under it), decompose, and one
        # ingest and one close span per checkpoint window.
        import json

        report_path = tmp_path / "metrics.json"
        assert main([
            "stream", "--ases", "4", "--seed", "5",
            "--checkpoint-every", "10000",
            "--metrics-out", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        roots = json.loads(report_path.read_text())["trace"]

        def paths(spans, prefix=()):
            for span in spans:
                path = prefix + (span["name"],)
                yield path, span
                yield from paths(span.get("children", []), path)

        found = list(paths(roots))
        assert [span["name"] for span in roots] == ["stream"]
        assert {path for path, _ in found} == {
            ("stream",),
            ("stream", "load"),
            ("stream", "load", "simulate"),
            ("stream", "stream-decompose"),
            ("stream", "stream-ingest"),
            ("stream", "stream-close"),
            ("stream", "stream-classify"),
            ("stream", "stream-classify", "filter"),
            ("stream", "stream-classify", "classify"),
            ("stream", "stream-classify", "classify", "aggregate"),
            ("stream", "stream-classify", "population-signals"),
            ("stream", "stream-classify", "spectral"),
        }
        by_name = {}
        for path, span in found:
            by_name.setdefault(path[-1], []).append(span)
        checkpoints = len(by_name["stream-classify"]) - 1
        windows = by_name["stream-ingest"]
        assert len(windows) == checkpoints + 1
        assert len(by_name["stream-close"]) == checkpoints + 1
        total = int(out.split()[1])  # "streaming N records ..."
        assert sum(w["attrs"]["records"] for w in windows) == total
        assert all(w["attrs"]["stale"] == 0 for w in windows)
        assert all(
            w["attrs"]["records"] >= 10000 for w in windows[:-1]
        )
        assert windows[0]["attrs"]["batches"] == 10

    def test_obs_report_missing_file(self, tmp_path, capsys):
        code = main(["obs", "report", str(tmp_path / "nope.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line
        assert "error:" in err
        assert "no observability report" in err

    def test_obs_report_unreadable_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        code = main(["obs", "report", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")


    def test_obs_report_into_closed_pipe(self, tmp_path):
        """`repro obs report m.json | true`: the reader is gone before
        the report is written; the CLI exits 1 with no traceback."""
        import os
        import subprocess
        import sys

        import repro
        from repro.obs import Observability
        from repro.obs.report import write_report

        obs = Observability()
        obs.items_in("survey-period", 6)
        report = tmp_path / "m.json"
        write_report(obs, report)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "report",
                 str(report)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": os.path.dirname(
                    os.path.dirname(repro.__file__)
                )},
            )
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == ""


class TestQualityErrorPaths:
    def test_quality_missing_path(self, tmp_path, capsys):
        code = main(["quality", str(tmp_path / "nope.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")

    def test_quality_unreadable_path(self, tmp_path, capsys):
        # A directory is unreadable as a traceroute campaign.
        code = main(["quality", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")


class TestInjectErrorPaths:
    def test_inject_names_the_corrupt_line(self, tmp_path, capsys):
        """``repro inject`` run on a corrupted file, such as its own
        output, exits 1 on the first line that is not JSON."""
        src = tmp_path / "dirty.jsonl"
        out = tmp_path / "again.jsonl"
        src.write_text('{"prb_id": 1}\n\n#corrupt{"prb_id": 2}\n')
        assert main(["inject", str(src), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {src}: line 3: ")
        assert not out.exists()

    def test_inject_missing_path(self, tmp_path, capsys):
        code = main([
            "inject", str(tmp_path / "nope.jsonl"),
            str(tmp_path / "out.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")


class TestObsDiff:
    def _write_report(self, path, value):
        from repro.obs import Observability
        from repro.obs.report import write_report

        obs = Observability()
        obs.counter("reqs_total", "", ("route",)).inc(value, route="as")
        write_report(obs, path)

    def test_diff_prints_counter_deltas(self, tmp_path, capsys):
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 3)
        self._write_report(after, 10)
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert 'reqs_total{route="as"} +7 (now 10)' in out

    def test_diff_with_no_changes(self, tmp_path, capsys):
        before = tmp_path / "a.json"
        self._write_report(before, 3)
        code = main([
            "obs", "report", "--diff", str(before), str(before),
        ])
        assert code == 0
        assert "(no counter changes)" in capsys.readouterr().out

    def test_diff_unreadable_side_errors(self, tmp_path, capsys):
        before = tmp_path / "a.json"
        self._write_report(before, 1)
        code = main([
            "obs", "report", "--diff", str(before),
            str(tmp_path / "missing.json"),
        ])
        assert code == 1
        assert "error: cannot read" in capsys.readouterr().err

    def test_diff_garbage_json_errors(self, tmp_path, capsys):
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 1)
        after.write_text("{not json")
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {after}")

    def test_diff_non_object_report_errors(self, tmp_path, capsys):
        """Valid JSON that is not a report object must be a one-line
        error, not an AttributeError traceback."""
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 1)
        after.write_text("[1, 2, 3]\n")
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {after}")
        assert "JSON object" in err

    def test_diff_non_object_metrics_section_errors(
        self, tmp_path, capsys
    ):
        import json

        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 1)
        after.write_text(json.dumps(
            {"schema": 1, "metrics": ["oops"]}
        ))
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {after}")
        assert "metrics section" in err


class TestLoadtestCommand:
    @pytest.fixture()
    def archive_dir(self, tmp_path):
        import datetime as dt

        from repro.core import Severity
        from repro.store import SurveyArchive
        from tests.store.conftest import make_ranking, make_survey

        archive = SurveyArchive(tmp_path / "arc")
        archive.ingest(
            make_survey("2019-06", dt.datetime(2019, 6, 1), {
                100: Severity.SEVERE, 200: Severity.LOW,
            }),
            ranking=make_ranking(),
        )
        return str(tmp_path / "arc")

    def test_in_process_run_writes_report(self, tmp_path, archive_dir,
                                          capsys):
        import json

        report_path = tmp_path / "report.json"
        code = main([
            "loadtest", archive_dir, "--in-process",
            "--concurrency", "2", "--duration", "0.3",
            "--warmup", "0", "--report", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "p99" in out
        payload = json.loads(report_path.read_text())
        assert payload["requests"] > 0
        assert payload["error_rate"] == 0.0
        assert payload["p99_ms"] > 0
        assert payload["concurrency"] == 2

    def test_http_run_reports_server_app_time(
        self, tmp_path, archive_dir, capsys
    ):
        import json

        report_path = tmp_path / "report.json"
        code = main([
            "loadtest", archive_dir, "--concurrency", "2",
            "--duration", "0.3", "--warmup", "0",
            "--report", str(report_path),
        ])
        assert code == 0
        assert "app p50" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        # The server's own time is part of what the client waited.
        assert 0 < payload["app_p50_ms"] < payload["p50_ms"]

    def test_update_bench_upserts_loadtest_section(
        self, tmp_path, archive_dir, capsys
    ):
        import json

        bench = tmp_path / "BENCH.json"
        bench.write_text(json.dumps({"overload": {"shed": 1}}))
        code = main([
            "loadtest", archive_dir, "--in-process",
            "--concurrency", "2", "--duration", "0.2", "--warmup", "0",
            "--mix", "as=4", "--mix", "healthz=1",
            "--update-bench", str(bench),
        ])
        assert code == 0
        capsys.readouterr()
        data = json.loads(bench.read_text())
        assert data["overload"] == {"shed": 1}
        assert data["loadtest"]["requests"] > 0

    def test_requires_archive_or_url(self, capsys):
        assert main(["loadtest"]) == 2
        assert "archive directory or --url" in capsys.readouterr().err

    def test_rejects_bad_mix_entry(self, archive_dir, capsys):
        code = main([
            "loadtest", archive_dir, "--mix", "bogus=1",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_archive_errors(self, tmp_path, capsys):
        from repro.store import SurveyArchive

        SurveyArchive(tmp_path / "empty")
        code = main(["loadtest", str(tmp_path / "empty")])
        assert code == 1
        assert "no committed periods" in capsys.readouterr().err


class TestStreamCommand:
    """``repro stream`` closes bins as the feed passes them."""

    def test_watermark_closes_bins_and_partials_see_them(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.core import classify_dataset
        from repro.io import save_lastmile, survey_to_dict
        from repro.scenarios import generate_specs
        from repro.store import SurveyArchive
        from repro.stream import StreamingSurvey
        from tests.stream.conftest import PERIOD, seeded_dataset

        specs = generate_specs(num_ases=4, num_countries=4, seed=5)
        dataset, _table = seeded_dataset(specs)
        base = tmp_path / "period"
        save_lastmile(dataset, base)

        open_after_close = []
        close_through = StreamingSurvey.close_through

        def spy(engine, bin_index):
            closed = close_through(engine, bin_index)
            open_after_close.append(
                (engine.open_bins(), engine.status()["probes"])
            )
            return closed

        monkeypatch.setattr(StreamingSurvey, "close_through", spy)
        assert main([
            "stream", "--dataset", str(base), "--batch-size", "1000",
            "--checkpoint-every", "20000", "--emit-partial",
            "--archive", str(tmp_path / "arc"),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()

        (summary,) = [line for line in lines if line.startswith("stream:")]
        assert ", 0 stale," in summary
        assert len(open_after_close) > 300
        assert all(
            open_bins <= 2 * probes for open_bins, probes in open_after_close
        )
        partials = [line for line in lines if line.startswith("  [")]
        (final,) = [line for line in lines if line.startswith("period ")]
        assert "severe=1" in final
        assert "severe=1" in partials[-1]
        assert "(committed r" in partials[-1]

        archive = SurveyArchive(tmp_path / "arc")
        batch = classify_dataset(dataset, PERIOD, min_probes=3)

        def canonical(document):
            return json.dumps(document, sort_keys=True)

        assert canonical(archive.get_period(PERIOD.name)) == canonical(
            survey_to_dict(batch)
        )

    def test_archive_path_printed_once(self, tmp_path, capsys):
        # A directory given with its trailing slash is printed with one.
        archive = f"{tmp_path / 'arc'}/"
        assert main([
            "stream", "--ases", "4", "--seed", "5", "--archive", archive,
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"finalized period 2019-09 in {archive}"
