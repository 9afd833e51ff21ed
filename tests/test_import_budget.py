"""Import-graph guards: what the ``repro`` CLI loads at start-up.

scipy costs more than a second of start-up, paid again by every CLI
call, server start and spawned shard worker.  Only the bootstrap,
correlation and Wilson-band helpers need it, and they import it when
called.

The start-up set is the pipeline the batch subcommands (``survey``,
``classify``, ``stream``) run, and nothing else: the tools (the
server, fault injection, the load generator, raclette, the CDN
world, the parallel executor, the HTTP client) load on first use.
Each check runs in a fresh interpreter, so nothing an earlier test
imported can hide a load.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.io import save_lastmile

from .kernels.test_differential import synthetic_dataset

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules (with their submodules) the start-up set must not hold.
TOOLS = (
    "repro.faults", "repro.loadgen", "repro.raclette", "repro.serve",
    "repro.cdn", "repro.anomaly", "repro.parallel.executor",
    "repro.store.fsck", "repro.scenarios.japan", "repro.core.throughput",
    "multiprocessing", "urllib.request", "http.client", "ssl", "email",
    "xml.sax", "socketserver",
)

PRELUDE = """
import sys


def check(step, prefixes):
    loaded = sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )
    if loaded:
        sys.exit(f"loaded after {step}: {loaded[:5]}")
"""

SCIPY_PROGRAM = PRELUDE + """
import repro.cli
check("import repro.cli", ["scipy"])

base, out = sys.argv[1], sys.argv[2]
code = repro.cli.main([
    "survey", "--ases", "8", "--periods", "1", "--out", out,
])
assert code == 0, code
check("repro survey", ["scipy"])

from repro.core import classify_dataset
from repro.io import load_lastmile

for kernels in ("reference", "vector"):
    dataset = load_lastmile(base)
    result = classify_dataset(
        dataset, dataset.grid.period, min_probes=3, kernels=kernels,
    )
    assert result.reports, kernels
    check(f"classify_dataset(kernels={kernels!r})", ["scipy"])
print("ok")
"""

STARTUP_PROGRAM = PRELUDE + """
tools = sys.argv[3].split(",")
import repro.cli
check("import repro.cli", tools)

base, out = sys.argv[1], sys.argv[2]
code = repro.cli.main([
    "survey", "--ases", "8", "--periods", "1", "--out", out,
])
assert code == 0, code
check("repro survey", tools)

code = repro.cli.main(["stream", "--dataset", base])
assert code == 0, code
check("repro stream --dataset", tools)
print("ok")
"""

SERVER_PROGRAM = PRELUDE + """
from repro.serve import SurveyServer
from repro.store import SurveyArchive

with SurveyServer(SurveyArchive(sys.argv[1])):
    pass
check("SurveyServer(...)", [
    "repro.loadgen", "repro.raclette", "repro.faults", "repro.cdn",
    "repro.parallel.executor", "http.client",
])
print("ok")
"""

LAZY_NAMES_PROGRAM = """
import repro
from repro.core import ThroughputSeries
from repro.parallel import run_survey_period_parallel
from repro.scenarios import build_tokyo_case_study
from repro.serve import RetryingClient

assert repro.faults.FaultLog.__name__ == "FaultLog"
assert ThroughputSeries.__module__ == "repro.core.throughput"
assert run_survey_period_parallel.__module__ == "repro.parallel.executor"
assert build_tokyo_case_study.__module__ == "repro.scenarios.japan"
assert RetryingClient.__module__ == "repro.serve.client"
for name in repro.__all__:
    assert name in dir(repro), name
print("ok")
"""

WORKERS_PROGRAM = """
import sys

import repro.cli

code = repro.cli.main([
    "survey", "--ases", "8", "--periods", "1", "--out", sys.argv[1],
])
assert code == 0, code
assert "repro.parallel.executor" in sys.modules
print("ok")
"""


def run_fresh(program, *args, env=None):
    result = subprocess.run(
        [sys.executable, "-c", program, *map(str, args)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("ok")


def test_cli_paths_do_not_import_scipy(tmp_path):
    base = tmp_path / "lastmile"
    save_lastmile(synthetic_dataset(num_ases=3), base)
    run_fresh(SCIPY_PROGRAM, base, tmp_path / "site")


def test_start_up_and_batch_runs_load_no_tools(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    base = tmp_path / "lastmile"
    save_lastmile(synthetic_dataset(num_ases=3), base)
    run_fresh(STARTUP_PROGRAM, base, tmp_path / "site", ",".join(TOOLS))


def test_server_loads_no_client_or_pipeline_tools(tmp_path):
    run_fresh(SERVER_PROGRAM, tmp_path / "arc")


def test_lazy_names_resolve():
    run_fresh(LAZY_NAMES_PROGRAM)


def test_workers_env_still_routes_surveys_through_executor(tmp_path):
    run_fresh(WORKERS_PROGRAM, tmp_path / "site",
              env={"REPRO_WORKERS": "2"})
