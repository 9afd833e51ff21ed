"""raclette — streaming last-mile delay monitoring.

The paper releases its tooling as *raclette: human-friendly monitoring
of Internet delays* [16].  This subpackage is the streaming face of
the reproduction: the same §2 methodology, restructured for unbounded
result streams with bounded memory, plus sustained-congestion alerts.

Run the CLI on an Atlas-schema JSON-lines file::

    python -m repro.raclette --rib rib.txt results.jsonl
"""

from .alerts import Alert, AlertSink, ListSink, PrintSink
from .monitor import LastMileMonitor, MonitorConfig
from .sketch import RollingMinimum

__all__ = [
    "Alert",
    "AlertSink",
    "ListSink",
    "PrintSink",
    "LastMileMonitor",
    "MonitorConfig",
    "RollingMinimum",
]
