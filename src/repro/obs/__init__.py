"""Observability: telemetry probes, trace export, run manifests, reports.

``repro.obs`` is the layer that makes runs *inspectable* without ever
perturbing them:

- :mod:`repro.obs.timeline` — :class:`~repro.obs.timeline.TimelineSampler`
  samples simulated-time series (C-state occupancy, package power, queue
  depth, frequency) on engine ticks that read but never mutate sim state.
- :mod:`repro.obs.chrometrace` — exports :class:`~repro.simkit.trace.
  TraceRecorder` events as Chrome trace-event JSON for Perfetto /
  ``chrome://tracing`` (``repro trace run ... -o trace.json``).
- :mod:`repro.obs.manifest` — append-only JSONL lifecycle stream for
  sweep points (claimed/finished/memo-hit/.../timeout/failed) plus
  worker heartbeats: the liveness substrate the distributed executor's
  lease recovery and fleet report consume.
- :mod:`repro.obs.figures` / :mod:`repro.obs.report` — figure rendering
  (matplotlib when available, pure-SVG fallback otherwise) and the
  self-contained ``repro report`` HTML page.

This module keeps its imports stdlib-only so simulation-layer modules
(``cluster.sharding`` merges timelines) can import it without cycles.
"""

from repro.obs.manifest import RunManifest, tail_summary  # noqa: F401
from repro.obs.timeline import (  # noqa: F401
    TIMELINE_VERSION,
    TimelineSampler,
    aggregate_node_series,
    merge_timelines,
)

__all__ = [
    "RunManifest",
    "tail_summary",
    "TIMELINE_VERSION",
    "TimelineSampler",
    "aggregate_node_series",
    "merge_timelines",
]
