"""Persistence for measurement and last-mile datasets.

Formats are deliberately boring and inspectable:

* traceroute datasets → JSON lines in the Atlas result schema (exactly
  what a download from the Atlas API looks like);
* binned last-mile datasets → one ``.npz`` of aligned arrays plus a
  JSON sidecar for the grid and probe metadata.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..atlas.traceroute import (
    MeasurementDataset,
    ProbeMeta,
    parse_result,
)
from ..netbase.errors import MeasurementDataError
from ..obs import get_observer
from ..quality import DataQualityReport, DropReason
from ..timebase import MeasurementPeriod, TimeGrid
from ..core.series import LastMileDataset, ProbeBinSeries

PathLike = Union[str, Path]

LOAD_STAGE = "io-load-traceroutes"


def save_traceroutes(dataset: MeasurementDataset, path: PathLike) -> int:
    """Write every traceroute result as Atlas-schema JSON lines.

    Lines are a stable merge of the per-probe sequences on timestamp:
    each probe's results keep their stored order (so a load restores
    them exactly) and equal timestamps go in probe-id order.  When
    every probe's results are in time order
    (:meth:`MeasurementDataset.sort_results`), the file is a
    timestamp-ordered stream, as a live feed is.  Returns the number
    of rows written.  Probe metadata goes to a ``<path>.meta.json``
    sidecar.
    """
    path = Path(path)
    rows = 0
    merged = heapq.merge(
        *(dataset.for_probe(prb_id) for prb_id in dataset.probe_ids()),
        key=lambda result: result.timestamp,
    )
    with path.open("w") as handle:
        for result in merged:
            handle.write(json.dumps(result.to_json()) + "\n")
            rows += 1
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta_path.write_text(json.dumps({
        str(prb_id): _meta_to_dict(meta)
        for prb_id, meta in dataset.probe_meta.items()
    }, indent=1))
    return rows


def load_traceroutes(
    path: PathLike,
    strict: bool = True,
    quality: Optional[DataQualityReport] = None,
) -> MeasurementDataset:
    """Read a JSON-lines traceroute file (sidecar optional).

    Strict mode (the default) fails on the first bad line — right for
    trusted, locally-written files.  ``strict=False`` is the mode for
    real downloaded corpora: corrupt lines and malformed records are
    skipped, duplicate ``(prb_id, msm_id, timestamp)`` records dropped,
    garbage RTTs coerced to timeouts, and out-of-order streams
    re-sorted — every repair and drop counted on ``quality`` (one is
    created if not supplied; it is returned on ``dataset.quality``).
    """
    path = Path(path)
    obs = get_observer()
    if quality is None:
        quality = DataQualityReport()
    dataset = MeasurementDataset(quality=quality)
    seen: set = set()
    lines_read = 0
    with obs.stage_span(
        "load", path=str(path), strict=strict
    ) as span, path.open() as handle:
        for number, line in enumerate(handle, start=1):
            lines_read += 1
            line = line.strip()
            if not line:
                continue
            quality.ingest(LOAD_STAGE)
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise
                quality.drop(
                    LOAD_STAGE, DropReason.CORRUPT_LINE,
                    detail=f"line {number}: {exc}",
                )
                continue
            try:
                result = parse_result(
                    data, lenient=not strict,
                    quality=quality, stage=LOAD_STAGE,
                )
            except MeasurementDataError as exc:
                if strict:
                    raise
                quality.drop(
                    LOAD_STAGE, exc.reason,
                    detail=f"line {number}: {exc.detail}",
                )
                continue
            if not strict:
                key = (result.prb_id, result.msm_id, result.timestamp)
                if key in seen:
                    quality.drop(
                        LOAD_STAGE, DropReason.DUPLICATE_RECORD,
                        detail=f"line {number}: duplicate {key}",
                    )
                    continue
                seen.add(key)
            dataset.add(result)
        if not strict:
            resorted = dataset.sort_results()
            if resorted:
                quality.degrade(
                    LOAD_STAGE, DropReason.OUT_OF_ORDER, n=resorted,
                    detail=f"{resorted} probe streams re-sorted",
                )
        meta_path = path.with_suffix(path.suffix + ".meta.json")
        if meta_path.exists():
            for key, entry in json.loads(meta_path.read_text()).items():
                dataset.probe_meta[int(key)] = _meta_from_dict(entry)
        kept = sum(
            len(results) for results in dataset.results.values()
        )
        obs.items_in(LOAD_STAGE, lines_read)
        obs.items_out(LOAD_STAGE, kept)
        span.set_attr("records", kept)
        obs.logger.bind(stage=LOAD_STAGE).info(
            "load-done", path=str(path), lines=lines_read, kept=kept,
        )
    return dataset


def _meta_to_dict(meta: ProbeMeta) -> Dict:
    return {
        "prb_id": meta.prb_id,
        "asn": meta.asn,
        "is_anchor": meta.is_anchor,
        "public_address": meta.public_address,
        "city": meta.city,
        "version": meta.version,
    }


def _meta_from_dict(entry: Dict) -> ProbeMeta:
    return ProbeMeta(
        prb_id=int(entry["prb_id"]),
        asn=int(entry["asn"]),
        is_anchor=bool(entry["is_anchor"]),
        public_address=entry["public_address"],
        city=entry.get("city", ""),
        version=int(entry.get("version", 3)),
    )


def save_lastmile(dataset: LastMileDataset, path: PathLike) -> None:
    """Write a binned last-mile dataset as ``.npz`` + JSON sidecar."""
    path = Path(path)
    probe_ids = dataset.probe_ids()
    arrays = {}
    if probe_ids:
        arrays["probe_ids"] = np.asarray(probe_ids, dtype=np.int64)
        arrays["medians"] = np.vstack([
            dataset.series[p].median_rtt_ms for p in probe_ids
        ])
        arrays["counts"] = np.vstack([
            dataset.series[p].traceroute_counts for p in probe_ids
        ])
    np.savez_compressed(path, **arrays)

    period = dataset.grid.period
    sidecar = {
        "period": {
            "name": period.name,
            "start": period.start.isoformat(),
            "days": period.days,
        },
        "bin_seconds": dataset.grid.bin_seconds,
        "probe_meta": {
            str(prb_id): _meta_to_dict(meta)
            for prb_id, meta in dataset.probe_meta.items()
            if isinstance(meta, ProbeMeta)
        },
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=1))


def load_lastmile(path: PathLike) -> LastMileDataset:
    """Read a dataset written by :func:`save_lastmile`."""
    import datetime as dt

    path = Path(path)
    npz_path = path if path.suffix == ".npz" else Path(str(path) + ".npz")
    sidecar = json.loads(_sidecar_path(path).read_text())
    period = MeasurementPeriod(
        name=sidecar["period"]["name"],
        start=dt.datetime.fromisoformat(sidecar["period"]["start"]),
        days=int(sidecar["period"]["days"]),
    )
    grid = TimeGrid(period, int(sidecar["bin_seconds"]))
    dataset = LastMileDataset(grid=grid)

    with np.load(npz_path) as data:
        if "probe_ids" in data:
            probe_ids = data["probe_ids"]
            medians = data["medians"]
            counts = data["counts"]
            for row, prb_id in enumerate(probe_ids):
                dataset.add(ProbeBinSeries(
                    prb_id=int(prb_id),
                    median_rtt_ms=medians[row],
                    traceroute_counts=counts[row],
                ))
    for key, entry in sidecar.get("probe_meta", {}).items():
        dataset.probe_meta[int(key)] = _meta_from_dict(entry)
    return dataset


def _sidecar_path(path: Path) -> Path:
    base = path if path.suffix != ".npz" else path.with_suffix("")
    return Path(str(base) + ".sidecar.json")
