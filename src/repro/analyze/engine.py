"""The analysis driver: discover files, run rules, apply suppressions.

Per-file work (parse + every registered rule) is embarrassingly
parallel, so with ``jobs > 1`` it fans out over a process pool; results
merge deterministically (findings sort by location) regardless of which
worker analysed which file. The project-level CONC and DEAD checks —
which relate several files — run once in the parent over one shared
call graph. Suppression comments from every analysed file are then
matched centrally, so one mechanism covers per-file and cross-module
findings alike.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analyze.findings import Finding
from repro.analyze.paths import display_path
from repro.analyze.rules import FileContext, all_rules

# Rule modules register themselves on import. The imports live HERE, not
# in __init__, because process-pool workers import only this module to
# unpickle analyze_file — without them a worker would run zero rules and
# happily report a clean file.
import repro.analyze.det  # noqa: F401  (registration side effect)
import repro.analyze.fastpath  # noqa: F401  (registration side effect)
from repro.analyze.callgraph import CallGraph
from repro.analyze.conc import check_process_boundaries
from repro.analyze.dead import check_dead_modules, check_dead_symbols
from repro.analyze.suppress import (
    _ALLOW,
    _MARKER,
    Suppression,
    apply_suppressions,
    parse_suppressions,
)
from repro.errors import ConfigurationError

#: Below this many files a process pool costs more than it saves.
_PARALLEL_THRESHOLD = 16


@dataclass
class LintResult:
    """Everything one lint run produced.

    Attributes:
        findings: active findings (fail the gate), sorted by location.
        suppressed: findings covered by a reasoned allow comment.
        files_analyzed: number of Python files parsed.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def discover_files(paths: Sequence[str]) -> List[str]:
    """Python files under ``paths`` (files pass through), sorted.

    Raises:
        ConfigurationError: when a path does not exist.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(files))


def _display_path(path: str) -> str:
    """Repo-relative forward-slash path when possible (stable baselines,
    identical findings from any cwd). See :mod:`repro.analyze.paths`."""
    return display_path(path)


def analyze_file(path: str) -> Tuple[List[Finding], List[Suppression]]:
    """Parse one file and run every per-file rule over it.

    Unparseable files yield a single ANA004 finding — shrinking analysis
    coverage must fail the gate, not pass it quietly.
    """
    display = _display_path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return (
            [
                Finding(
                    path=display, line=line, col=0, rule_id="ANA004",
                    message=f"cannot analyze file: {exc}",
                )
            ],
            [],
        )
    ctx = FileContext(display, source, tree)
    findings: List[Finding] = []
    for rule in all_rules():
        findings.extend(rule.check(ctx))
    suppressions, hygiene = parse_suppressions(display, source)
    findings.extend(hygiene)
    # Rules walking one AST from several angles may report a node twice;
    # findings are value-objects, so exact duplicates collapse here.
    return sorted(set(findings)), suppressions


def run_lint(
    paths: Sequence[str],
    jobs: Optional[int] = None,
    project_checks: bool = True,
) -> LintResult:
    """Analyze ``paths`` and return matched, sorted findings.

    Args:
        paths: files and/or directories to analyze.
        jobs: worker processes; ``None`` picks serial for small file
            sets and ``os.cpu_count()`` (capped at 8) above
            ``_PARALLEL_THRESHOLD`` files.
        project_checks: run the cross-module CONC and DEAD series.

    Raises:
        ConfigurationError: for nonexistent paths or invalid ``jobs``.
    """
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    files = discover_files(paths)
    if jobs is None:
        jobs = 1
        if len(files) > _PARALLEL_THRESHOLD:
            jobs = min(os.cpu_count() or 1, 8)

    findings: List[Finding] = []
    by_path: Dict[str, List[Suppression]] = {}
    if jobs > 1 and len(files) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_file = list(pool.map(analyze_file, files, chunksize=8))
    else:
        per_file = [analyze_file(path) for path in files]
    for path, (file_findings, suppressions) in zip(files, per_file):
        findings.extend(file_findings)
        if suppressions:
            by_path[_display_path(path)] = suppressions

    if project_checks:
        graph = CallGraph(files)
        findings.extend(check_process_boundaries(graph))
        findings.extend(check_dead_modules(graph))
        findings.extend(check_dead_symbols(graph))

    active, suppressed = apply_suppressions(findings, by_path)
    return LintResult(
        findings=active, suppressed=suppressed, files_analyzed=len(files)
    )


_STALE_MESSAGE = re.compile(r"suppression of ([A-Za-z]+[0-9]+) matches no")


def _comment_column(source: str, lineno: int) -> Optional[int]:
    """Column of the (tokenizer-verified) comment on line ``lineno``."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT and token.start[0] == lineno:
                return token.start[1]
    except (tokenize.TokenError, IndentationError):
        return None
    return None


def _remove_allow_clause(line_text: str, col: int, rule_id: str) -> Optional[str]:
    """``line_text`` with the ``allow[rule_id]`` clause deleted.

    Returns None when the comment carries no such clause; returns ``""``
    (plus the original line ending) when the whole line was only that
    comment and should disappear.
    """
    stripped = line_text.rstrip("\r\n")
    ending = line_text[len(stripped):]
    prefix, comment = stripped[:col], stripped[col:]
    marker = _MARKER.search(comment)
    if marker is None:
        return None
    clauses = [
        (m.group(1), m.group(2).strip().rstrip("-").strip())
        for m in _ALLOW.finditer(marker.group(1))
    ]
    kept = [(rid, reason) for rid, reason in clauses if rid != rule_id]
    if len(kept) == len(clauses):
        return None
    if kept:
        body = " -- ".join(
            f"allow[{rid}] {reason}" if reason else f"allow[{rid}]"
            for rid, reason in kept
        )
        return f"{prefix}{comment[: marker.start()]}# repro: {body}{ending}"
    remainder = prefix.rstrip()
    if not remainder:
        return ""  # comment-only line: delete it outright
    return remainder + ending


def fix_stale_suppressions(
    paths: Sequence[str],
    jobs: Optional[int] = None,
) -> int:
    """Delete every ANA003 stale suppression in place; returns the count.

    Runs a full lint to locate stale allow clauses (the tokenizer
    anchors them exactly), then rewrites each affected file: the clause
    is removed from its comment, an emptied comment is removed from its
    line, and an emptied comment-only line is deleted entirely.
    """
    result = run_lint(paths, jobs=jobs)
    stale = [f for f in result.findings if f.rule_id == "ANA003"]
    if not stale:
        return 0
    fs_by_display = {_display_path(p): p for p in discover_files(paths)}
    by_file: Dict[str, List[Finding]] = {}
    for finding in stale:
        by_file.setdefault(finding.path, []).append(finding)
    removed = 0
    for display in sorted(by_file):
        fs_path = fs_by_display.get(display)
        if fs_path is None:
            continue
        with open(fs_path, encoding="utf-8") as handle:
            source = handle.read()
        lines = source.splitlines(keepends=True)
        changed = False
        for finding in sorted(by_file[display], reverse=True):
            match = _STALE_MESSAGE.match(finding.message)
            index = finding.line - 1
            if match is None or index >= len(lines):
                continue
            col = _comment_column("".join(lines), finding.line)
            if col is None:
                continue
            new_line = _remove_allow_clause(
                lines[index], col, match.group(1)
            )
            if new_line is None:
                continue
            if new_line == "":
                del lines[index]
            else:
                lines[index] = new_line
            changed = True
            removed += 1
        if changed:
            with open(fs_path, "w", encoding="utf-8") as handle:
                handle.write("".join(lines))
    return removed
