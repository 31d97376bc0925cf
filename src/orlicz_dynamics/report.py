"""Report envelopes: one JSON encoding and determinism hashing.

The hash covers the envelope without ``runtime`` (timings) and itself.
``render_envelope`` is the one encoding of the hash, the ``--out`` file
and stdout: sorted keys, no whitespace, strict JSON, the C encoder.
Non-finite floats are written as the strings "inf", "-inf" and "nan":
``make_envelope`` sanitizes the hashed part only when its one encode
refuses a non-finite float (and always the small ``runtime``); both
routes give the same bytes.  A non-finite float that bypassed the
conversion makes ``render_envelope`` raise.

A report is one file, series included.  ``write_series_csv`` has no
caller; it stays only as a name the benchmark's tracer wraps.
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


def render_envelope(envelope: dict) -> str:
    """The one encoding: the report's text, and the hashed text of its core."""
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"), allow_nan=False)


def determinism_hash(envelope: dict) -> str:
    core = _sanitize({k: v for k, v in envelope.items() if k not in _EXCLUDED_FROM_HASH})
    return hashlib.sha256(render_envelope(core).encode()).hexdigest()


def make_envelope(config: dict, results: dict, *, timings: dict, version: str) -> dict:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": version},
        "config": config,
        "results": results,
    }
    try:
        core = render_envelope(envelope)
    except ValueError:  # a non-finite float
        envelope = _sanitize(envelope)
        core = render_envelope(envelope)
    envelope["runtime"] = _sanitize({"timings": timings})
    envelope["determinism_hash"] = hashlib.sha256(core.encode()).hexdigest()
    return envelope


def write_envelope(path: str | Path, envelope: dict) -> None:
    Path(path).write_text(render_envelope(envelope) + "\n")


def write_series_csv(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Header and rows as CSV, None as an empty field.  Uncalled: kept as
    the benchmark tracer's span name, and deleted with that span."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
