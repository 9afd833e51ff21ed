"""Golden regression: the raclette monitor CLI's output.

``raclette_golden.json`` pins ``python -m repro.raclette``'s stdout —
alerts, the summary line with its drop breakdown, and the top list —
on the frozen two-ISP stream of :mod:`tests.golden.regenerate`, fed in
timestamp order (``ordered``) and after ``repro inject`` at its
default rates (``injected``).  If a change is intentional, regenerate
with::

    PYTHONPATH=src:. python -m tests.golden.regenerate
"""

import json

import pytest

from .regenerate import RACLETTE_FIXTURE, build_raclette_golden


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return build_raclette_golden(tmp_path_factory.mktemp("raclette"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(RACLETTE_FIXTURE.read_text())


@pytest.mark.parametrize("stream", ["ordered", "injected"])
def test_cli_output_matches_golden(outputs, golden, stream):
    assert outputs[stream] == golden[stream]


def test_golden_has_one_alerting_as(golden):
    """The fixture must stay a non-trivial anchor: the congested ISP
    alerts, the clean one does not, and the injected stream's summary
    shows what was dropped."""
    for lines in golden.values():
        alerted = {
            line.split()[1] for line in lines if line.startswith("[")
        }
        assert alerted == {"AS64501"}
        assert any(line.startswith("AS64502:") for line in lines)
    assert "dropped:" in "\n".join(golden["injected"])
