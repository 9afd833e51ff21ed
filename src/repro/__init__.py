"""repro — reproduction of *Persistent Last-mile Congestion: Not so
Uncommon* (Fontugne, Shah, Cho; ACM IMC 2020).

The package is layered (see DESIGN.md):

* substrates — :mod:`repro.netbase`, :mod:`repro.bgp`,
  :mod:`repro.topology`, :mod:`repro.traffic`, :mod:`repro.queueing`,
  :mod:`repro.atlas`, :mod:`repro.cdn`, :mod:`repro.apnic`;
* the paper's methodology — :mod:`repro.core`;
* configured experiment worlds — :mod:`repro.scenarios`.

Typical use::

    from repro.scenarios import build_tokyo_case_study
    from repro.core import aggregate_population, classify_signal

    study = build_tokyo_case_study()
    dataset = study.dataset_for("ISP_A")
    signal = aggregate_population(dataset)
    result = classify_signal(signal.delay_ms, dataset.grid.bin_seconds)

Importing :mod:`repro` loads no subpackage: each one loads on first
access (``repro.core``, ``import repro.serve``), so a command pays
only for the stack it runs.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "netbase",
    "bgp",
    "topology",
    "traffic",
    "queueing",
    "atlas",
    "cdn",
    "apnic",
    "core",
    "scenarios",
    "timebase",
    "io",
    "raclette",
    "quality",
    "obs",
    "faults",
    "parallel",
    "store",
    "serve",
    "loadgen",
]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: (name,) for name in __all__[1:]}
)
