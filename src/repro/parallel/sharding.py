"""AS-population sharding for the survey's process pool.

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
itself happens in :func:`repro.scenarios.run_survey_period`, in
sorted-ASN order, which is also what makes it deterministic.

:func:`resolve_workers` lives here, not in the executor, so an
in-process survey can ask whether to use the pool without loading it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..atlas.platform import usable_cpus


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


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: ``None`` means 1 (in process).

    ``0`` expands to the CPUs this process may run on
    (:func:`repro.atlas.platform.usable_cpus`), the count the
    simulator sizes its thread pool by.
    """
    if workers is None:
        return 1
    if workers == 0:
        workers = usable_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers
