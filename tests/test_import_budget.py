"""Import-graph guard: the ``repro`` CLI never loads scipy.

scipy costs more than a second of start-up, paid again by every CLI
call, server start and spawned shard worker.  Only the bootstrap,
correlation and Wilson-band helpers need it, and they import it when
called.  This test checks, in a fresh interpreter, that ``import
repro.cli``, an in-process ``repro survey`` and a load-and-classify
of a saved period on both kernel backends leave no ``scipy*`` module
in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.io import save_lastmile

from .kernels.test_differential import synthetic_dataset

SRC = Path(repro.__file__).resolve().parents[1]

PROGRAM = """
import sys


def check(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    if loaded:
        sys.exit(f"scipy loaded after {step}: {loaded[:5]}")


import repro.cli
check("import repro.cli")

base, out = sys.argv[1], sys.argv[2]
code = repro.cli.main([
    "survey", "--ases", "8", "--periods", "1", "--out", out,
])
assert code == 0, code
check("repro survey")

from repro.core import classify_dataset
from repro.io import load_lastmile

for kernels in ("reference", "vector"):
    dataset = load_lastmile(base)
    result = classify_dataset(
        dataset, dataset.grid.period, min_probes=3, kernels=kernels,
    )
    assert result.reports, kernels
    check(f"classify_dataset(kernels={kernels!r})")
print("no scipy")
"""


def test_cli_paths_do_not_import_scipy(tmp_path):
    base = tmp_path / "lastmile"
    save_lastmile(synthetic_dataset(num_ases=3), base)
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(base), str(tmp_path / "site")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("no scipy")
