"""Report rendering and the committed zero-finding baseline.

Text reports anchor every finding at ``file:line:col`` (clickable in
editors and CI logs); JSON reports carry the same records under a
versioned schema that round-trips through :func:`report_from_dict`. The
committed baseline (``baseline.json``, kept at *zero* findings) is the
CI gate: a finding not in the baseline fails the build, so the only way
to land a new violation is to fix it or to suppress it in the diff where
a reviewer sees the written reason.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

from repro.analyze.engine import LintResult
from repro.analyze.findings import REPORT_VERSION, Finding
from repro.errors import ConfigurationError

#: The committed baseline lives next to this module and stays empty; it
#: exists as a file (rather than an implicit "no findings") so the gate
#: semantics — "no finding outside this list" — survive future rules
#: that might need a grandfathering window.
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baseline.json")


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Human report: one ``path:line:col: RULE message`` line per finding."""
    lines = [
        f"{finding.anchor}: {finding.rule_id} {finding.message}"
        for finding in result.findings
    ]
    if verbose:
        lines += [
            f"{finding.anchor}: {finding.rule_id} suppressed "
            f"({finding.suppress_reason})"
            for finding in result.suppressed
        ]
    lines.append(
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{result.files_analyzed} file(s) analyzed"
    )
    return "\n".join(lines)


def report_to_dict(result: LintResult) -> Dict[str, Any]:
    """Versioned JSON-safe report; inverse of :func:`report_from_dict`."""
    return {
        "version": REPORT_VERSION,
        "files_analyzed": result.files_analyzed,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
    }


def report_from_dict(data: Dict[str, Any]) -> LintResult:
    """Rebuild a :class:`LintResult` from :func:`report_to_dict` output.

    Raises:
        ConfigurationError: on a foreign schema version or malformed
            finding records.
    """
    if not isinstance(data, dict) or data.get("version") != REPORT_VERSION:
        raise ConfigurationError(
            f"unsupported lint report version {data.get('version')!r} "
            f"(expected {REPORT_VERSION})"
        )
    try:
        return LintResult(
            findings=[Finding.from_dict(f) for f in data["findings"]],
            suppressed=[Finding.from_dict(f) for f in data.get("suppressed", [])],
            files_analyzed=int(data.get("files_analyzed", 0)),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"corrupt lint report: {exc}") from exc


def render_json(result: LintResult) -> str:
    return json.dumps(report_to_dict(result), indent=2, sort_keys=True)


def load_baseline(path: str = BASELINE_PATH) -> List[Finding]:
    """Findings the gate tolerates (the committed list is empty).

    Raises:
        ConfigurationError: when the baseline is missing or malformed —
            a gate that cannot read its allowlist must fail closed.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return report_from_dict(json.load(handle)).findings
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        raise ConfigurationError(f"cannot read lint baseline {path}: {exc}") from exc


def compare_to_baseline(
    findings: Sequence[Finding], baseline: Sequence[Finding]
) -> List[Finding]:
    """Findings not covered by the baseline (these fail the gate)."""
    known = {finding.identity for finding in baseline}
    return [f for f in findings if f.identity not in known]
