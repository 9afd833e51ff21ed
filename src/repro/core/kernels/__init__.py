"""Analysis kernels: one flat-array contract, two implementations.

The paper's numeric steps (§2.1, §2.3) run through three operations
over flat arrays, and every caller — the estimator, the survey, the
streaming engine and anomaly pinpointing — goes through them:

* ``group_medians(keys, values, num_keys)`` — the median of
  ``values`` per integer key; NaN for an empty key or one holding a
  NaN (``numpy.median`` semantics).  Keys are ``row * num_bins +
  bin`` for per-(probe, bin) medians, or any dense index.
* ``population_medians(delays, group_rows)`` — per population (a list
  of row indices into a (probe x bin) queueing-delay matrix), the
  per-bin median of its non-NaN members and how many contributed;
  ``(medians, contributing)`` of shape (populations x bins).
* ``markers_batch(signals, bin_seconds, ...)`` — spectral markers per
  aggregated signal, None for a degenerate one.

Two backends implement it:

* ``reference`` — loops that read like the paper: one
  :func:`numpy.median` per key, one :func:`numpy.nanmedian` per
  population, one :func:`~repro.core.spectral.compute_markers` per
  signal.  It is the oracle the differential suites
  (``tests/kernels``, ``tests/stream``, ``tests/anomaly``) compare
  against.
* ``vector`` (the default) — numpy: one grouped-median sort, a padded
  (population x bin x probe) cube sorted along its last axis, and one
  :func:`~repro.core.spectral.welch_power` call per signal length.

Everything around the three operations is shared and backend-free
(:mod:`.flat`): the traceroute scan, the bin masking, the
queueing-delay matrix and the chunk planner that bounds the cube.

**Contract:** both backends produce *numerically identical* output —
bit-for-bit under :func:`repro.io.survey_to_dict` — on every input,
including fault-injected and degenerate datasets.  Because outputs
are identical, the parallel result cache deliberately does *not* key
on the backend.  Callers select a backend with a ``kernels=``
argument (a name or a backend object); None means
:data:`DEFAULT_KERNELS`.  Shard workers receive the parent's resolved
backend name in their task.
"""

from __future__ import annotations

from typing import Union

from ...obs import get_observer

#: Backend used when no ``kernels`` argument is given.
DEFAULT_KERNELS = "vector"


def resolve_kernels(kernels: Union[None, str, object] = None):
    """Resolve a backend: a name, a backend object, or None (default).

    A backend object is returned unchanged.  Unknown names raise
    ``ValueError`` naming the valid choices.
    """
    if kernels is not None and not isinstance(kernels, str):
        return kernels
    name = kernels or DEFAULT_KERNELS
    if name == "reference":
        from .reference import REFERENCE

        return REFERENCE
    if name == "vector":
        from .vector import VECTOR

        return VECTOR
    raise ValueError(
        f"unknown kernel backend {name!r}; choose reference or vector"
    )


def record_kernel_op(kernel_name: str, op: str, n: int = 1) -> None:
    """Count kernel work on the active observer.

    ``kernel_ops_total{kernel, op}`` is the per-backend counter the
    dashboards use to confirm which backend actually ran — a constant
    time no-op under the default NOOP observer.
    """
    obs = get_observer()
    if not obs.enabled:
        return
    obs.counter(
        "kernel_ops_total",
        "analysis kernel invocations per backend and operation",
        ("kernel", "op"),
    ).inc(n, kernel=kernel_name, op=op)


__all__ = [
    "DEFAULT_KERNELS",
    "resolve_kernels",
    "record_kernel_op",
]
