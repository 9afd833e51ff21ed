"""Selectable analysis kernels: reference loops vs vectorized numpy.

The hot path of the pipeline — per-bin sample medians (§2.1), probe
queueing-delay stacking, population aggregation and Welch
classification (§2.3) — exists in two interchangeable backends:

* ``reference`` — the original per-traceroute / per-probe Python
  loops.  Simple, obviously faithful to the paper's prose, and the
  ground truth the differential-equivalence suite (``tests/kernels``)
  compares against.
* ``vector``    — batched numpy implementations: flat
  ``(probe, bin, sample)`` arrays with one grouped-median sort
  instead of per-bin :func:`numpy.median` calls, 2-D queueing-delay
  stacking, and one :func:`~repro.core.spectral.welch_power` call
  over an (AS x bins) matrix instead of per-AS FFTs.

**Contract:** both backends produce *numerically identical* output —
bit-for-bit under :func:`repro.io.survey_to_dict` — on every input,
including fault-injected and degenerate datasets.  The contract is
enforced by ``tests/kernels`` (differential harness + hypothesis
properties) and the golden fixtures under ``tests/golden``; because
outputs are identical, the parallel result cache deliberately does
*not* key on the backend (a hit computed by one backend may serve a
run using the other).

Resolution order: an explicit ``kernels=`` argument (a name or a
backend object) wins, then the ``REPRO_KERNELS`` environment variable,
then the default ``reference``.  Shard workers always receive the
parent's *resolved* backend name in their task, so a survey's backend
choice is shard-invariant regardless of worker environments.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

from ...obs import get_observer

#: Environment knob consulted when ``kernels`` is not given explicitly
#: (the CI matrix leg exports ``REPRO_KERNELS=vector``).
KERNELS_ENV = "REPRO_KERNELS"

#: Default backend: the loop implementation the paper's prose maps to.
DEFAULT_KERNELS = "reference"


def available_kernels() -> Tuple[str, ...]:
    """Names accepted by :func:`resolve_kernels` (and ``--kernels``)."""
    return ("reference", "vector")


def resolve_kernels(kernels: Union[None, str, object] = None):
    """Resolve a backend: explicit arg > ``REPRO_KERNELS`` > reference.

    ``kernels`` may be a backend name, an already-resolved backend
    object (returned unchanged), or None.  Unknown names raise
    ``ValueError`` listing the valid choices.
    """
    if kernels is not None and not isinstance(kernels, str):
        return kernels
    name = kernels
    if name is None:
        name = os.environ.get(KERNELS_ENV, "").strip().lower() or None
    if name is None:
        name = DEFAULT_KERNELS
    if name == "reference":
        from .reference import REFERENCE

        return REFERENCE
    if name == "vector":
        from .vector import VECTOR

        return VECTOR
    raise ValueError(
        f"unknown kernel backend {name!r}; "
        f"choose one of {', '.join(available_kernels())}"
    )


def record_kernel_op(kernel_name: str, op: str, n: int = 1) -> None:
    """Count one kernel invocation on the active observer.

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
    "KERNELS_ENV",
    "DEFAULT_KERNELS",
    "available_kernels",
    "resolve_kernels",
    "record_kernel_op",
]
