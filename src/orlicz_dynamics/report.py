"""Report envelopes: canonical JSON, determinism hashing, CSV export.

Envelopes are deterministic given the config.  The ``runtime``
section (timings) is excluded from the determinism hash, everything else
is covered by it.  Non-finite floats are serialized as the strings
"inf", "-inf" and "nan" to keep the output strict JSON.  ``make_envelope``
first encodes the hashed part with the C encoder and ``allow_nan=False``;
only when that refuses a non-finite float does it sanitize that part
(and it always sanitizes the small ``runtime``).  Finite floats, lists
and tuples encode alike either way, so the hash and the written bytes do
not depend on which route ran.  The writers encode the envelope as it
is, with ``allow_nan=False``, so a non-finite float that bypassed the
conversion fails loudly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable

SCHEMA_VERSION = 2
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


def make_envelope(config: dict, results: dict, *, timings: dict, version: str) -> dict:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": version},
        "config": config,
        "results": results,
    }
    try:
        core = _canonical(envelope)
    except ValueError:  # a non-finite float
        envelope = _sanitize(envelope)
        core = _canonical(envelope)
    envelope["runtime"] = _sanitize({"timings": timings})
    envelope["determinism_hash"] = hashlib.sha256(core.encode()).hexdigest()
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
