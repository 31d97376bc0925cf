"""Report envelopes: canonical JSON, determinism hashing, CSV export.

Envelopes are deterministic given config and seed.  The ``runtime``
section (timings, worker count) is excluded from the determinism hash,
everything else is covered by it.  Non-finite floats are serialized as
the strings "inf", "-inf" and "nan" to keep the output strict JSON.
``make_envelope`` does that conversion once, for the whole envelope; the
hash and the writers then encode that object as it is, with
``allow_nan=False``, so a non-finite float that bypassed it fails loudly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable

SCHEMA_VERSION = 1
TOOL_NAME = "orlicz-dynamics"

_EXCLUDED_FROM_HASH = ("runtime", "determinism_hash")


def _sanitize(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _canonical(sanitized) -> str:
    return json.dumps(sanitized, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _hash_core(sanitized: dict) -> str:
    core = {k: v for k, v in sanitized.items() if k not in _EXCLUDED_FROM_HASH}
    return hashlib.sha256(_canonical(core).encode()).hexdigest()


def dumps_canonical(obj) -> str:
    return _canonical(_sanitize(obj))


def determinism_hash(envelope: dict) -> str:
    return _hash_core(_sanitize(envelope))


def make_envelope(config: dict, results: dict, *, jobs: int, timings: dict, version: str) -> dict:
    envelope = _sanitize(
        {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": version},
            "config": config,
            "results": results,
            "runtime": {"jobs": jobs, "timings": timings},
        }
    )
    envelope["determinism_hash"] = _hash_core(envelope)
    return envelope


def write_envelope(path: str | Path, envelope: dict) -> None:
    Path(path).write_text(render_envelope(envelope) + "\n")


def render_envelope(envelope: dict) -> str:
    return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)


def write_series_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
