"""CONC-series: process-boundary hazards found via the project call graph.

Sweeps fan simulation points out to worker processes
(owned ``multiprocessing.Process`` workers in ``repro/sweep/runner.py``,
which also run the node-range shards of ``repro/cluster/sharding.py``;
the distributed fleet in ``repro/distrib``; ``pool.map`` in the analyzer
itself). Every
one of those submissions is a serialization boundary where determinism
can silently break. :mod:`repro.analyze.callgraph` resolves what
actually crosses each boundary; the rules here flag the four hazard
classes:

- **CONC001** — unpicklable callables and captures: lambdas, locally
  defined functions, and locals bound to open files, sqlite
  connections, sockets or threading primitives. These fail at submit
  time at best; under fork they "work" until the first spawn-start
  platform breaks them.
- **CONC002** — module-level mutable state *written* in worker-reachable
  code but *read* in the parent. Worker writes never propagate back
  across the fork, so the parent reads stale state — the registry-drift
  bug class the sweep runner used to guard only by name
  (``_check_worker_registries``). Parent-to-worker sharing (warm caches,
  factory registries populated before the fork) is the legitimate
  direction and is not flagged.
- **CONC003** — RNG or ``Simulator`` instances reachable from both
  sides of a fork: a module-level ``random.Random`` (or an instance
  passed as a submit argument) draws from interleaved streams depending
  on start method and scheduling, destroying bit-identity. Pass seeds,
  construct inside the worker.
- **CONC004** — worker-reachable code importing parent-only modules
  (``argparse``, ``curses``, ``tkinter``, ``readline``, ``repro.cli``):
  these assume a tty/argv and at minimum tax every worker start under
  spawn.

The analysis is conservative: an edge that cannot be resolved shrinks
the worker-reachable set, so every finding points at a demonstrable
submission path. Findings carry normal file:line anchors and respect
``# repro: allow[CONC00x] reason`` suppressions, the committed baseline
and JSON output like every per-file rule.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analyze.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    SubmissionSite,
    attribute_chain,
    local_binding,
)
from repro.analyze.findings import Finding
from repro.analyze.paths import display_path
from repro.analyze.rules import declare_rule

CONC001 = declare_rule(
    "CONC001",
    "unpicklable callable or capture crosses a process boundary",
    "Lambdas, locally defined functions and locals holding open "
    "files/sockets/sqlite connections/threading primitives cannot be "
    "pickled into a worker process: the submission fails at runtime, "
    "or silently depends on fork inheriting state that spawn will not.",
)
CONC002 = declare_rule(
    "CONC002",
    "module global written in worker-reachable code, read in the parent",
    "A worker's writes to module-level mutable state never propagate "
    "back across the fork, so the parent reads state that was only "
    "updated in a child address space — results quietly go missing. "
    "Return data through the pool's future or the result store instead.",
)
CONC003 = declare_rule(
    "CONC003",
    "RNG or Simulator instance reachable from both sides of a fork",
    "An RNG or Simulator shared across a process boundary draws from "
    "interleaved streams depending on start method and scheduling, "
    "destroying the bit-identical reproducibility every result depends "
    "on. Pass a seed and construct the instance inside the worker.",
)
CONC004 = declare_rule(
    "CONC004",
    "worker-reachable code imports a parent-only module",
    "Modules that assume a tty, argv or interactive session (argparse, "
    "curses, readline, repro.cli) must not execute in workers: under "
    "spawn every worker start re-imports them, and their side effects "
    "belong to exactly one process — the parent.",
)

#: Modules (by root or full dotted name) that only the parent process
#: may import. ``repro.cli`` owns argparse/stdout; the rest assume a
#: terminal session.
PARENT_ONLY_MODULES = frozenset(
    {"argparse", "curses", "tkinter", "readline", "repro.cli"}
)

#: Modules that are worker entry points by *contract* rather than by a
#: submission site the call graph can see: ``repro worker`` processes —
#: bare interpreters, possibly on other hosts — import these first,
#: so their import-time behaviour is held to the same parent-only-free
#: standard as callgraph-detected entry modules (CONC004 part b).
WORKER_ENTRY_MODULES = frozenset({"repro.distrib.worker"})

#: Methods that mutate the receiver in place (write detection for
#: CONC002/CONC003 on container globals).
_MUTATORS = frozenset(
    {
        "append", "add", "update", "setdefault", "extend", "insert",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
    }
)

_THREADING_PRIMITIVES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Event", "Barrier", "local"}
)


def check_process_boundaries(graph: CallGraph) -> List[Finding]:
    """CONC001-004 over an already built call graph."""
    findings: List[Finding] = []
    for site in graph.sites:
        findings.extend(_check_site(graph, site))
    reachable = graph.worker_reachable()
    for module in graph.modules.values():
        findings.extend(_check_shared_globals(module, reachable))
        findings.extend(_check_shared_rng(module, reachable))
    findings.extend(_check_parent_only_imports(graph, reachable))
    return sorted(findings)


def _finding_at(
    module: ModuleInfo, line: int, col: int, rule_id: str, message: str
) -> Finding:
    return Finding(
        path=display_path(module.path),
        line=line,
        col=col,
        rule_id=rule_id,
        message=message,
    )


def _finding(
    module: ModuleInfo, node: ast.AST, rule_id: str, message: str
) -> Finding:
    return _finding_at(
        module,
        getattr(node, "lineno", 1),
        getattr(node, "col_offset", 0),
        rule_id,
        message,
    )


# -- CONC001 + CONC003 (submission arguments) ------------------------------
def _resource_desc(expr: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Human description when ``expr`` constructs an unpicklable
    process-local resource."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "an open file handle"
        origin = module.from_imports.get(func.id)
        if origin is not None:
            if origin == ("sqlite3", "connect"):
                return "an open sqlite connection"
            if origin[0] == "threading" and origin[1] in (
                _THREADING_PRIMITIVES
            ):
                return f"a threading.{origin[1]}"
            if origin == ("socket", "socket"):
                return "an open socket"
        return None
    chain = attribute_chain(func)
    if chain is None:
        return None
    if chain == ("sqlite3", "connect"):
        return "an open sqlite connection"
    if len(chain) == 2 and chain[0] == "threading" and (
        chain[1] in _THREADING_PRIMITIVES
    ):
        return f"a threading.{chain[1]}"
    if chain == ("socket", "socket"):
        return "an open socket"
    return None


def _rng_desc(expr: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Human description when ``expr`` constructs an RNG or Simulator."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Name):
        origin = module.from_imports.get(func.id)
        if origin == ("random", "Random"):
            return "random.Random instance"
        if origin is not None and origin[1] == "Simulator" and (
            origin[0] in ("repro.simkit", "repro.simkit.engine")
        ):
            return "Simulator instance"
        return None
    chain = attribute_chain(func)
    if chain == ("random", "Random"):
        return "random.Random instance"
    if chain is not None and chain[-1] == "Simulator":
        dotted = module.resolve_module_prefix(chain)
        if dotted in ("repro.simkit", "repro.simkit.engine"):
            return "Simulator instance"
    return None


def _unpicklable_reason(
    expr: ast.expr,
    module: ModuleInfo,
    scope_stack: Sequence[ast.AST],
) -> Optional[str]:
    """Why ``expr`` cannot cross a pickle boundary, or None."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator"
    if isinstance(expr, ast.Name):
        bound = local_binding(scope_stack, expr.id)
        if isinstance(bound, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"the locally defined function {expr.id!r}"
        if isinstance(bound, ast.Lambda):
            return f"the local lambda {expr.id!r}"
        if bound is not None:
            desc = _resource_desc(bound, module)
            if desc is not None:
                return f"{expr.id!r}, which holds {desc}"
        return None
    desc = _resource_desc(expr, module)
    if desc is not None:
        return desc
    return None


def _rng_reason(
    expr: ast.expr,
    module: ModuleInfo,
    scope_stack: Sequence[ast.AST],
    rng_globals: Dict[str, Tuple[int, str]],
) -> Optional[str]:
    desc = _rng_desc(expr, module)
    if desc is not None:
        return f"a {desc}"
    if isinstance(expr, ast.Name):
        bound = local_binding(scope_stack, expr.id)
        if bound is not None:
            desc = _rng_desc(bound, module)
            if desc is not None:
                return f"{expr.id!r}, a {desc}"
        elif expr.id in rng_globals:
            return f"module-level {rng_globals[expr.id][1]} {expr.id!r}"
    return None


def _check_site(graph: CallGraph, site: SubmissionSite) -> List[Finding]:
    module = site.module
    findings: List[Finding] = []
    boundary = {
        "submit": "pool.submit",
        "map": "pool.map",
        "process": "multiprocessing.Process",
    }[site.api]
    callables: List[ast.expr] = []
    data_args = list(site.data_args)
    if site.callable_expr is not None:
        expr = site.callable_expr
        if isinstance(expr, ast.Call):  # functools.partial(f, a, b)
            callables.extend(expr.args[:1])
            data_args.extend(expr.args[1:])
            data_args.extend(kw.value for kw in expr.keywords)
        else:
            callables.append(expr)
    for expr in callables:
        reason = _unpicklable_reason(expr, module, site.scope_stack)
        if reason is not None:
            findings.append(
                _finding(
                    module, expr, CONC001,
                    f"callable handed to {boundary} is {reason}: it "
                    "cannot be pickled into the worker process — use a "
                    "module-level function",
                )
            )
    rng_globals = _module_rng_globals(module)
    for expr in data_args:
        reason = _unpicklable_reason(expr, module, site.scope_stack)
        if reason is not None:
            findings.append(
                _finding(
                    module, expr, CONC001,
                    f"argument crossing the {boundary} boundary is "
                    f"{reason}: it cannot be pickled into the worker "
                    "process",
                )
            )
            continue
        rng = _rng_reason(expr, module, site.scope_stack, rng_globals)
        if rng is not None:
            findings.append(
                _finding(
                    module, expr, CONC003,
                    f"argument crossing the {boundary} boundary is "
                    f"{rng}: its state diverges between parent and "
                    "worker — pass a seed and construct it inside the "
                    "worker",
                )
            )
    return findings


# -- CONC002 / CONC003 (module globals across the fork) --------------------
def _module_rng_globals(
    module: ModuleInfo,
) -> Dict[str, Tuple[int, str]]:
    """Module-level names bound to an RNG/Simulator: name -> (line, desc)."""
    out: Dict[str, Tuple[int, str]] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        desc = _rng_desc(value, module)
        if desc is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = (stmt.lineno, desc)
    return out


def _function_uses(
    info: FunctionInfo, names: Set[str]
) -> Tuple[Dict[str, List[int]], Dict[str, List[int]]]:
    """(writes, reads) of module globals ``names`` inside one function.

    A bare-name assignment only counts as a write under a ``global``
    declaration; otherwise it shadows. Subscript stores, ``del``, and
    in-place mutator calls (``G.append`` ...) always count.
    """
    node = info.node
    declared: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            declared.update(sub.names)
    args = node.args  # type: ignore[attr-defined]
    params = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.add(extra.arg)

    def shadowed(name: str) -> bool:
        if name in declared:
            return False
        if name in params:
            return True
        return local_binding((node,), name) is not None

    writes: Dict[str, List[int]] = {}
    reads: Dict[str, List[int]] = {}
    mutator_receivers: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(
            sub.func, ast.Attribute
        ):
            value = sub.func.value
            if (
                isinstance(value, ast.Name)
                and value.id in names
                and sub.func.attr in _MUTATORS
                and not shadowed(value.id)
            ):
                writes.setdefault(value.id, []).append(sub.lineno)
                mutator_receivers.add(id(value))
        for target in _store_targets(sub):
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in names
                and not shadowed(target.value.id)
            ):
                writes.setdefault(target.value.id, []).append(sub.lineno)
                mutator_receivers.add(id(target.value))
            elif (
                isinstance(target, ast.Name)
                and target.id in names
                and target.id in declared
            ):
                writes.setdefault(target.id, []).append(sub.lineno)
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id in names
            and id(sub) not in mutator_receivers
            and not shadowed(sub.id)
        ):
            reads.setdefault(sub.id, []).append(sub.lineno)
    return writes, reads


def _store_targets(node: ast.AST) -> List[ast.expr]:
    if isinstance(node, ast.Assign):
        out: List[ast.expr] = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                out.extend(target.elts)
            else:
                out.append(target)
        return out
    if isinstance(node, ast.AugAssign):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


def _module_functions(module: ModuleInfo) -> List[FunctionInfo]:
    out = list(module.functions.values())
    for methods in module.classes.values():
        out.extend(methods.values())
    return out


def _check_shared_globals(
    module: ModuleInfo, reachable: Set[FunctionInfo]
) -> List[Finding]:
    names = set(module.mutable_globals)
    if not names:
        return []
    findings: List[Finding] = []
    uses = [
        (info, *_function_uses(info, names))
        for info in _module_functions(module)
    ]
    for name in sorted(names):
        writers = []
        readers = []
        for info, writes, reads in uses:
            if info in reachable and writes.get(name):
                writers.append((info, min(writes[name])))
            if info not in reachable and reads.get(name):
                readers.append(info)
        if writers and readers:
            info, line = writers[0]
            findings.append(
                _finding_at(
                    module, line, 0, CONC002,
                    f"module global {name!r} is written in "
                    f"worker-reachable {info.label} but read by the "
                    f"parent ({readers[0].label}): worker writes never "
                    "cross back over the fork — return the data through "
                    "the pool result or the store",
                )
            )
    return findings


def _check_shared_rng(
    module: ModuleInfo, reachable: Set[FunctionInfo]
) -> List[Finding]:
    rng_globals = _module_rng_globals(module)
    if not rng_globals:
        return []
    findings: List[Finding] = []
    names = set(rng_globals)
    uses = [
        (info, *_function_uses(info, names))
        for info in _module_functions(module)
    ]
    for name in sorted(names):
        line, desc = rng_globals[name]

        def touches(writes: Dict[str, List[int]],
                    reads: Dict[str, List[int]]) -> bool:
            return bool(writes.get(name) or reads.get(name))

        worker_side = [i for i, w, r in uses if i in reachable and touches(w, r)]
        parent_side = [i for i, w, r in uses if i not in reachable and touches(w, r)]
        if worker_side and parent_side:
            findings.append(
                _finding_at(
                    module, line, 0, CONC003,
                    f"module-level {desc} {name!r} is used by "
                    f"worker-reachable {worker_side[0].label} and by the "
                    f"parent ({parent_side[0].label}): its draws "
                    "interleave across the fork nondeterministically — "
                    "give each side its own seeded instance",
                )
            )
    return findings


# -- CONC004 (parent-only imports) -----------------------------------------
def _parent_only(module_name: str) -> Optional[str]:
    if module_name in PARENT_ONLY_MODULES:
        return module_name
    root = module_name.split(".")[0]
    if root in PARENT_ONLY_MODULES:
        return root
    return None


def _check_parent_only_imports(
    graph: CallGraph, reachable: Set[FunctionInfo]
) -> List[Finding]:
    findings: List[Finding] = []
    # (a) imports executed inside worker-reachable functions.
    for info in sorted(reachable, key=lambda i: (i.module.path, i.qualname)):
        for node in ast.walk(info.node):
            for mod in _imported_modules(node):
                hit = _parent_only(mod)
                if hit is not None:
                    findings.append(
                        _finding(
                            info.module, node, CONC004,
                            f"worker-reachable {info.label} imports "
                            f"parent-only module {hit!r}: this executes "
                            "in every worker process",
                        )
                    )
    # (b) module-level imports of worker-entry modules: importing the
    # entry function's module is the first thing every worker does.
    # Declared entries (the `repro worker` loop) are included even when
    # no in-repo submission site references them — external workers
    # import them from a bare interpreter.
    entry_modules = {root.module for root in graph.submitted_roots()}
    for dotted in WORKER_ENTRY_MODULES:
        declared = graph.modules.get(dotted)
        if declared is not None:
            entry_modules.add(declared)
    for module in sorted(entry_modules, key=lambda m: m.path):
        for stmt in module.tree.body:
            for mod in _imported_modules(stmt):
                hit = _parent_only(mod)
                if hit is not None:
                    findings.append(
                        _finding(
                            module, stmt, CONC004,
                            f"worker-entry module {module.dotted} "
                            f"imports parent-only module {hit!r} at "
                            "import time: every worker start executes "
                            "it — move the import into the parent-side "
                            "function that needs it",
                        )
                    )
    return findings


def _imported_modules(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level and node.module:
        return [node.module]
    return []
