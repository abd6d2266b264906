"""Exact, compact serialization of :class:`RunResult` for the result store.

A run's observables must survive a disk round trip bit-for-bit: experiments
compare powers and percentiles for equality across executors, so lossy
*re-encodings* would break the "store hit == fresh simulation" contract.
Exact-mode latency samples are therefore packed as raw IEEE-754 doubles
(``struct``), deflated (``zlib``) and base64-armoured so the whole record
is a single JSON document: ~40 000 samples from a 100 KQPS x 0.4 s point
compress to a few hundred KB.

Sketch-backed results (``sketch_error`` set on the spec) are *already*
bounded-error summaries; the store round-trips the sketch's integer
bucket state exactly (format v3), so a decoded tracker reports the same
percentiles — and merges identically — as the one that was encoded. v2
rows (exact samples only) remain readable.

Both directions are derived from the :class:`RunResult` fields: a record
is ``"format"``, then the latency tracker under its own key (the one
field with a hook), then every other field by name in declaration order.
A new field therefore reaches the codec by itself; ``tests/test_store.py``
pins the resulting shape per :data:`FORMAT_VERSION`, so it cannot change
without a version bump.
"""

from __future__ import annotations

import base64
import struct
import zlib
from dataclasses import MISSING, Field, fields
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.server.metrics import RunResult
from repro.simkit.sketch import DDSketch
from repro.simkit.stats import PercentileTracker
from repro.sweep.spec import check_field_type

#: Bump when the record layout changes; readers treat other values as a miss.
#: v2: added the events_processed / peak_pending_events perf counters.
#: v3: latency may be a DDSketch state blob instead of raw samples.
#: v4: optional telemetry timeline (null when the run sampled none).
FORMAT_VERSION = 4

#: Formats :func:`result_from_dict` can decode. v2 rows predate the
#: sketch backend and always carry exact samples; v2/v3 rows simply
#: decode with no timeline.
SUPPORTED_VERSIONS = (2, 3, 4)


def encode_samples(samples: Sequence[float]) -> str:
    """Pack floats as little-endian doubles, deflate, base64 (exact)."""
    packed = struct.pack(f"<{len(samples)}d", *samples)
    return base64.b64encode(zlib.compress(packed)).decode("ascii")


def decode_samples(blob: str) -> List[float]:
    """Inverse of :func:`encode_samples`; floats round-trip exactly."""
    packed = zlib.decompress(base64.b64decode(blob.encode("ascii")))
    return list(struct.unpack(f"<{len(packed) // 8}d", packed))


#: The field with a codec hook: a latency tracker is stored as exact
#: samples or as sketch state, under the key that names which.
_LATENCY = "server_latency"
_SAMPLES_KEY = "server_latency_samples"
_SKETCH_KEY = "server_latency_sketch"

#: Every other RunResult field, stored under its own name.
_PLAIN_FIELDS: Tuple[Field[Any], ...] = tuple(
    f for f in fields(RunResult) if f.name != _LATENCY
)


def _encode_latency(tracker: PercentileTracker) -> Tuple[str, object]:
    """``(key, value)`` of a tracker: sketch state or a sample blob."""
    sketch = tracker.sketch
    if sketch is not None:
        return _SKETCH_KEY, sketch.to_state()
    return _SAMPLES_KEY, encode_samples(tracker.samples)


def _decode_latency(data: Dict[str, Any]) -> PercentileTracker:
    """Inverse of :func:`_encode_latency`.

    Raises:
        ConfigurationError: when neither key holds a decodable value.
    """
    sketch_state = data.get(_SKETCH_KEY)
    if sketch_state is not None:
        return PercentileTracker._from_sketch(DDSketch.from_state(sketch_state))
    blob = data.get(_SAMPLES_KEY)
    if not isinstance(blob, str):
        raise ConfigurationError(
            f"corrupt result record: {_SAMPLES_KEY} must be a string, "
            f"got {blob!r}"
        )
    tracker = PercentileTracker()
    try:
        tracker.add_many(decode_samples(blob))
    except (ValueError, struct.error, zlib.error) as exc:
        raise ConfigurationError(f"corrupt result record: {exc}") from exc
    return tracker


def result_to_dict(result: RunResult) -> Dict[str, object]:
    """JSON-safe dict capturing a :class:`RunResult` exactly.

    JSON round-trips every value exactly: floats (also inside the
    cluster ``node_detail`` and the telemetry ``timeline``) by
    shortest repr, the tracker as a packed sample blob or integer
    bucket state.
    """
    latency_key, latency = _encode_latency(result.server_latency)
    record: Dict[str, object] = {"format": FORMAT_VERSION, latency_key: latency}
    for f in _PLAIN_FIELDS:
        record[f.name] = getattr(result, f.name)
    return record


def result_from_dict(data: object) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output.

    A field an older format lacks takes its dataclass default.

    Raises:
        ConfigurationError: on a non-object record, a missing or foreign
            format marker, a missing required field, or a value of the
            wrong JSON type — callers treat this as a cache miss, not a
            crash.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"result record must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") not in SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"unsupported result record format {data.get('format')!r} "
            f"(expected one of {SUPPORTED_VERSIONS})"
        )
    values: Dict[str, Any] = {_LATENCY: _decode_latency(data)}
    for f in _PLAIN_FIELDS:
        if f.name in data:
            value = data[f.name]
            check_field_type("RunResult", f.name, str(f.type), value)
            values[f.name] = value
        elif f.default is MISSING:
            raise ConfigurationError(
                f"corrupt result record: missing field {f.name!r}"
            )
    return RunResult(**values)
