"""``repro report``: one self-contained HTML page for a repro run.

The report stitches together everything this repository can say about
the reproduction in a single file with zero external references:

- **experiments** — every selected experiment's figures (rendered by
  :mod:`repro.obs.figures`; inline SVG without matplotlib, base64 PNG
  with it) plus its legacy text table;
- **telemetry** — simulated-time power/C-state/load plots when the
  report run samples a timeline (``--telemetry-hz``);
- **manifest** — an event-count and throughput summary of a sweep run
  manifest JSONL (``--manifest``).

Everything embeds as markup or data URIs, so the artifact can be mailed,
attached to CI, or archived as-is.
"""

from __future__ import annotations

import glob
import html
import json
import os
from typing import Dict, List, Optional, Sequence

from repro.obs.figures import matplotlib_available, render_figure, timeline_figures

#: Report page version (bump when the structure changes meaningfully).
REPORT_VERSION = 1

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       max-width: 1200px; margin: 0 auto; padding: 0 24px 64px;
       color: #1a1a2e; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 8px; }
h2 { margin-top: 40px; border-bottom: 1px solid #ccc; padding-bottom: 4px; }
h3 { margin-bottom: 4px; }
pre { background: #f6f8fa; padding: 12px; overflow-x: auto;
      font-size: 12px; border-radius: 6px; }
table.summary { border-collapse: collapse; font-size: 13px; }
table.summary th, table.summary td { border: 1px solid #ccc;
      padding: 4px 10px; text-align: right; }
table.summary th { background: #f0f2f5; }
table.summary td:first-child, table.summary th:first-child {
      text-align: left; }
.figure { margin: 8px 12px 8px 0; vertical-align: top; }
.meta { color: #666; font-size: 12px; }
.notes { font-size: 13px; color: #444; }
.regressed { color: #c0392b; font-weight: bold; }
details > summary { cursor: pointer; color: #1f77b4; font-size: 13px; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


# -- manifest summary ---------------------------------------------------------

def summarize_manifest(path: str) -> Dict[str, object]:
    """Reduce a sweep run-manifest JSONL to a summary dict.

    Returns event counts, distinct workers, total finished wall time and
    aggregate simulated-event throughput; malformed lines are counted,
    not fatal (a manifest from a killed run may end mid-line).
    """
    counts: Dict[str, int] = {}
    workers = set()
    wall_total = 0.0
    events_rates: List[float] = []
    malformed = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            event = str(record.get("event", "?"))
            counts[event] = counts.get(event, 0) + 1
            if "worker" in record:
                workers.add(str(record["worker"]))
            if event == "finished":
                wall = record.get("wall_s")
                if isinstance(wall, (int, float)):
                    wall_total += float(wall)
                rate = record.get("events_per_s")
                if isinstance(rate, (int, float)):
                    events_rates.append(float(rate))
    return {
        "path": path,
        "counts": counts,
        "workers": sorted(workers),
        "finished_wall_s": wall_total,
        "mean_events_per_s": (
            sum(events_rates) / len(events_rates) if events_rates else None
        ),
        "malformed_lines": malformed,
    }


def summarize_manifest_dir(path: str) -> Dict[str, object]:
    """Fleet view: crash-tolerant summary of a directory of manifests.

    A distributed sweep leaves one per-worker manifest under
    ``<queue_dir>/manifests/``; this merges their
    :func:`~repro.obs.manifest.tail_summary` digests (torn final lines
    from SIGKILLed workers included) into one summary with per-worker
    rows and fleet-wide event counts.
    """
    from repro.obs.manifest import tail_summary

    tails = [
        tail_summary(p)
        for p in sorted(glob.glob(os.path.join(path, "*.jsonl")))
    ]
    counts: Dict[str, int] = {}
    for tail in tails:
        for event, count in tail["counts"].items():
            counts[event] = counts.get(event, 0) + count
    return {"path": path, "workers": tails, "counts": counts}


def _fleet_section(summary: Dict[str, object]) -> str:
    tails = summary["workers"]
    counts = summary["counts"]
    if not tails:
        return (
            "<h2>Distributed fleet</h2>"
            f'<p class="meta">{_esc(summary["path"])} &middot; '
            "no worker manifests found</p>"
        )
    torn = sum(1 for tail in tails if tail["torn_tail"])
    rows = []
    for tail in tails:
        tail_counts = tail["counts"]
        settled = tail_counts.get("finished", 0) + tail_counts.get("store_hit", 0)
        flag = ' <span class="regressed">torn tail</span>' if tail["torn_tail"] else ""
        rows.append(
            f"<tr><td>{_esc(tail['worker'] or os.path.basename(tail['path']))}"
            f"{flag}</td>"
            f"<td>{tail['events']}</td>"
            f"<td>{settled}</td>"
            f"<td>{tail_counts.get('heartbeat', 0)}</td>"
            f"<td>{tail_counts.get('retry', 0) + tail_counts.get('failed', 0)}</td>"
            f"<td>{_esc(tail['last_event'] or '—')}</td></tr>"
        )
    event_rows = "".join(
        f"<tr><td>{_esc(event)}</td><td>{counts[event]}</td></tr>"
        for event in sorted(counts)
    )
    torn_note = ""
    if torn:
        torn_note = (
            f'<p class="regressed">{torn} worker manifest(s) end mid-line '
            "— those workers were killed; their points were recovered by "
            "lease expiry.</p>"
        )
    return (
        "<h2>Distributed fleet</h2>"
        f'<p class="meta">{_esc(summary["path"])} &middot; '
        f"{len(tails)} worker manifest(s)</p>"
        '<table class="summary"><tr><th>worker</th><th>events</th>'
        "<th>settled</th><th>heartbeats</th><th>retried/failed</th>"
        f"<th>last event</th></tr>{''.join(rows)}</table>"
        f"{torn_note}"
        '<table class="summary" style="margin-top:12px">'
        "<tr><th>event</th><th>count</th></tr>"
        f"{event_rows}</table>"
    )


def _manifest_section(summary: Dict[str, object]) -> str:
    counts = summary["counts"]
    rows = "".join(
        f"<tr><td>{_esc(event)}</td><td>{counts[event]}</td></tr>"
        for event in sorted(counts)
    )
    mean_rate = summary["mean_events_per_s"]
    rate_text = f"{mean_rate:,.0f} events/s" if mean_rate else "n/a"
    extras = ""
    if summary["malformed_lines"]:
        extras = (
            f'<p class="regressed">{summary["malformed_lines"]} malformed '
            "line(s) — the producing run may have been killed mid-write.</p>"
        )
    return (
        f"<h2>Sweep manifest</h2>"
        f'<p class="meta">{_esc(summary["path"])} &middot; '
        f'workers: {_esc(", ".join(summary["workers"]) or "none")} &middot; '
        f"finished wall time {summary['finished_wall_s']:.2f}s &middot; "
        f"mean simulated throughput {rate_text}</p>"
        f'<table class="summary"><tr><th>event</th><th>count</th></tr>'
        f"{rows}</table>{extras}"
    )


# -- experiments --------------------------------------------------------------

def _experiment_section(experiment, result) -> str:
    figures = experiment.figures(result)
    rendered = "".join(render_figure(fig) for fig in figures)
    notes = "".join(
        f'<p class="notes">{_esc(note)}</p>' for note in result.notes
    )
    table = _esc(experiment.render_text(result))
    return (
        f'<h3 id="{_esc(experiment.id)}">{_esc(experiment.id)} '
        f"&mdash; {_esc(result.title)}</h3>"
        f'<p class="meta">reproduces: {_esc(result.artifact)} &middot; '
        f"{len(result.records)} record(s) &middot; "
        f"{len(figures)} figure(s)</p>"
        f"{rendered}{notes}"
        f"<details><summary>data table</summary><pre>{table}</pre></details>"
    )


def _telemetry_section(timeline: Dict[str, object], label: str) -> str:
    figures = timeline_figures(timeline)
    if not figures:
        return ""
    rendered = "".join(render_figure(fig) for fig in figures)
    return (
        "<h2>Telemetry timeline</h2>"
        f'<p class="meta">{_esc(label)} &middot; sampled at '
        f"{timeline.get('hz')} Hz simulated &middot; "
        f"{len(timeline.get('times', []))} samples</p>"
        f"{rendered}"
    )


# -- page ---------------------------------------------------------------------

def build_report(
    experiments: Sequence[object],
    results: Dict[str, object],
    timeline: Optional[Dict[str, object]] = None,
    timeline_label: str = "",
    manifest_path: Optional[str] = None,
    subtitle: str = "",
) -> str:
    """Assemble the self-contained HTML report page.

    Args:
        experiments: Experiment instances, in display order.
        results: their analyzed ExperimentResults keyed by experiment id.
        timeline: a sampled telemetry timeline dict to plot, if any.
        timeline_label: caption for the telemetry section.
        manifest_path: sweep run-manifest JSONL to summarize, if any; a
            *directory* renders the distributed-fleet view instead (one
            crash-tolerant tail summary per worker manifest inside it).
        subtitle: free-text line under the page title.
    """
    backend = "matplotlib" if matplotlib_available() else "inline SVG"
    sections: List[str] = []
    toc = "".join(
        f'<li><a href="#{_esc(e.id)}">{_esc(e.id)}</a></li>'
        for e in experiments
    )
    if experiments:
        sections.append(f"<h2>Experiments</h2><ul class='meta'>{toc}</ul>")
        for experiment in experiments:
            result = results.get(experiment.id)
            if result is None:
                continue
            sections.append(_experiment_section(experiment, result))
    if timeline:
        sections.append(_telemetry_section(timeline, timeline_label))
    if manifest_path:
        if os.path.isdir(manifest_path):
            # A distributed sweep's per-worker manifest directory.
            sections.append(_fleet_section(summarize_manifest_dir(manifest_path)))
        else:
            sections.append(_manifest_section(summarize_manifest(manifest_path)))
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>repro report</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>repro report &mdash; AgileWatts (MICRO 2022)</h1>"
        f'<p class="meta">report v{REPORT_VERSION} &middot; '
        f"figure backend: {backend}"
        f"{' &middot; ' + _esc(subtitle) if subtitle else ''}</p>"
        f"{''.join(sections)}"
        "</body></html>"
    )
