"""Content-addressed per-AS result cache.

Every cache entry is one AS's classification in one period, keyed by a
SHA-256 digest of a *fingerprint*: a canonical-JSON dict naming every
input that can change the entry's bytes — dataset identity, AS, period,
pipeline parameters, and a code-version salt.  Touch one AS's spec or
one threshold and exactly the invalidated keys change; everything else
is served warm.

The fingerprint recipe, :func:`survey_as_fingerprint`, keys the
generative world survey, where an AS's dataset slice is fully
determined by (world seed, the AS's position in the spec list, the
spec's fields, the probe (id, version) pairs, the deployment config,
the period and the provisioning wobble).  The position index matters:
the world spawns per-ISP seed sequences in spec order, so reordering
specs really does change the data.

Entries are JSON files under ``<dir>/<key[:2]>/<key>.json`` wrapping
the payload with its own checksum.  A corrupted or truncated entry is
*detected* (checksum/parse mismatch), *quarantined* (moved aside, not
deleted — it is evidence), and reported as a miss so the AS is
recomputed; a bad entry is never silently served.  Writes are atomic
(temp file + rename), and failures are never cached — a transient
fault must not be pinned into every future run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Union

from ..store.segments import canonical_json

#: Code-version salt baked into every cache key.  Bump whenever the
#: aggregate → spectral → classify chain changes behaviour: old
#: entries become unreachable (and eventually garbage-collectable)
#: instead of wrong.
PIPELINE_SALT = "repro-pipeline-v1"

PathLike = Union[str, Path]


def fingerprint_digest(fingerprint: Mapping) -> str:
    """SHA-256 hex digest of a fingerprint dict."""
    return hashlib.sha256(
        canonical_json(fingerprint).encode("ascii")
    ).hexdigest()


@dataclass
class CacheStats:
    """What one cache object served and stored so far."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses,
            "corrupt": self.corrupt, "writes": self.writes,
        }


@dataclass
class ResultCache:
    """Content-addressed JSON store for per-AS survey results."""

    directory: Path
    salt: str = PIPELINE_SALT
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.directory = Path(self.directory)

    @classmethod
    def ensure(
        cls, cache: Union["ResultCache", PathLike, None]
    ) -> Optional["ResultCache"]:
        """Normalize a cache argument: path-like becomes a cache."""
        if cache is None or isinstance(cache, ResultCache):
            return cache
        return cls(directory=Path(cache))

    # -- keys ----------------------------------------------------------

    def key(self, fingerprint: Mapping) -> str:
        """Digest of a fingerprint with this cache's salt mixed in.

        The cache *location* is deliberately absent: moving the
        directory must not invalidate anything.
        """
        return fingerprint_digest({**fingerprint, "salt": self.salt})

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    # -- storage -------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The payload stored under ``key``, or None on miss.

        A present-but-bad entry (unparseable, wrong checksum, missing
        fields) counts as *corrupt*: the file is moved to
        ``quarantine/`` and the lookup reports a miss, forcing a
        recompute.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):
            self._quarantine(path, key)
            return None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        checksum = entry.get("checksum") if isinstance(entry, dict) else None
        if payload is None or checksum != self._checksum(payload):
            self._quarantine(path, key)
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Dict) -> Path:
        """Atomically store ``payload`` under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"checksum": self._checksum(payload), "payload": payload}
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry, indent=1))
        os.replace(tmp, path)
        self.stats.writes += 1
        return path

    @staticmethod
    def _checksum(payload: Dict) -> str:
        return hashlib.sha256(
            canonical_json(payload).encode("ascii")
        ).hexdigest()

    def _quarantine(self, path: Path, key: str) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        target = self.directory / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Quarantine is best-effort; the recompute overwrites the
            # bad entry either way.
            pass


# -- fingerprint recipes ---------------------------------------------------


def survey_as_fingerprint(
    asn: int,
    spec,
    spec_index: int,
    probe_pairs: Sequence,
    period,
    world_seed: int,
    lockdown: bool,
    thresholds,
    max_attempts: int,
    deployment,
    bin_seconds: int,
    wobble_std: float = 0.008,
) -> Dict:
    """Key one AS of the generative world survey.

    ``probe_pairs`` are this AS's ``(probe_id, version)`` pairs:
    version sampling consumes one platform-wide RNG draw per probe, so
    a changed fleet upstream shifts later probes' identities — the
    pairs capture exactly that.  ``spec_index`` captures per-ISP seed
    spawn order (see module docstring).
    """
    return {
        "kind": "survey-as",
        "asn": int(asn),
        "spec_index": int(spec_index),
        "spec": {
            "asn": spec.asn,
            "name": spec.name,
            "country": spec.country,
            "subscribers": spec.subscribers,
            "intent": spec.intent,
            "technology": spec.technology.name,
            "peak_utilization": spec.peak_utilization,
            "service_time_ms": spec.service_time_ms,
            "probe_count": spec.probe_count,
            "lockdown_daytime_boost": spec.lockdown_daytime_boost,
            "lockdown_evening_boost": spec.lockdown_evening_boost,
        },
        "probes": [
            [int(prb_id), int(version)]
            for prb_id, version in probe_pairs
        ],
        "period": _period_fingerprint(period, bin_seconds),
        "world_seed": int(world_seed),
        "lockdown": bool(lockdown),
        "wobble_std": float(wobble_std),
        "deployment": {
            "version_weights": {
                version.name: float(weight)
                for version, weight in sorted(
                    deployment.version_weights.items(),
                    key=lambda kv: kv[0].value,
                )
            },
            "outage_rate_per_day": deployment.outage_rate_per_day,
            "reconnect_rate_per_day": deployment.reconnect_rate_per_day,
        },
        "pipeline": _pipeline_fingerprint(thresholds, max_attempts),
    }


def _period_fingerprint(period, bin_seconds) -> Dict:
    return {
        "name": period.name,
        "start": period.start.isoformat(),
        "days": period.days,
        "bin_seconds": int(bin_seconds),
    }


def _pipeline_fingerprint(thresholds, max_attempts: int) -> Dict:
    return {
        "thresholds": {
            "low_ms": thresholds.low_ms,
            "mild_ms": thresholds.mild_ms,
            "severe_ms": thresholds.severe_ms,
        },
        "max_attempts": int(max_attempts),
    }
