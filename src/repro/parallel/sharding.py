"""AS-population sharding for the parallel survey executor.

Shards are round-robin slices of the *sorted* ASN list: shard ``i`` of
``n`` holds ``sorted(asns)[i::n]``.  Round-robin beats contiguous
blocks here because probe counts are heavy-tailed (a handful of large
eyeballs host 10–25 probes each, see
:func:`repro.scenarios.worldsurvey.generate_specs`); dealing ASes like
cards spreads the big ones across workers instead of stacking them
into one slow shard.

The partition is pure bookkeeping — per-AS work is content-keyed all
the way down (campaign seeds, fault draws), so *any* partition of the
same population merges to the same :class:`SurveyResult`.  The merge
itself happens in the executor, in sorted-ASN order, which is also
what makes it deterministic.

:func:`resolve_workers` lives here, not in the executor, so a serial
survey can ask whether to shard without loading the pool machinery.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence


def partition_asns(
    asns: Sequence[int], shards: int
) -> List[List[int]]:
    """Round-robin partition of the sorted ASN list.

    Returns at most ``shards`` non-empty lists; every input ASN
    appears in exactly one.
    """
    ordered = sorted(asns)
    if not ordered:
        return []
    shards = max(1, min(int(shards), len(ordered)))
    return [ordered[i::shards] for i in range(shards)]


def shard_groups(
    groups: Dict[int, List[int]], shards: int
) -> List[Dict[int, List[int]]]:
    """Partition an ``{asn: probe_ids}`` mapping into shard mappings."""
    return [
        {asn: groups[asn] for asn in part}
        for part in partition_asns(list(groups), shards)
    ]


#: Environment knob consulted when ``workers`` is not given explicitly
#: (used by CI to route the whole test suite through the executor).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int]) -> Optional[int]:
    """Effective worker count: explicit arg > env var > None (serial).

    ``0`` (from either source) expands to the machine's CPU count.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return None
        workers = int(env)
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers
