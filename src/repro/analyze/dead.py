"""DEAD-series: modules no entry point reaches.

A module nothing imports is code nobody runs: its tests pass and its
docstring cites the paper, but no result this reproduction reports
depends on it. DEAD001 walks the import graph from the one entry point,
``python -m repro`` (:data:`ROOT_MODULE`), over the same
:class:`~repro.analyze.callgraph.CallGraph` the CONC series builds, and
flags every ``repro`` module the walk never reaches.

Edges of a reached module (lazy function-level imports included):

- ``import a.b.c`` reaches ``a.b.c`` and its parent packages;
- ``from pkg import sub``, where ``pkg.sub`` is a module, reaches it.
  Inside a package ``__init__`` this is how experiments and lint rules
  register;
- any other ``from mod import Name`` reaches ``mod``, and when ``mod``
  is a package the walk follows its ``__init__``'s re-export of
  ``Name``.

A package ``__init__``'s own ``from pkg.sub import Name`` lines are
re-exports, not edges: they count only for names a reached module asks
the package for, so a public-API re-export alone keeps no module alive.
A package imported as a module object (``from repro import analyze``,
then ``analyze.run_lint``) may be used through any of its names, so all
of its re-exports are followed.

The rule runs only when the analysed set contains ``repro/__main__.py``,
as the SPEC series runs only when its modules are present. It reports
each module at its first statement, so a comment-only line above that
statement can carry a reasoned ``allow[DEAD001]`` suppression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analyze.callgraph import CallGraph, ModuleInfo
from repro.analyze.findings import Finding
from repro.analyze.paths import display_path
from repro.analyze.rules import declare_rule

DEAD001 = declare_rule(
    "DEAD001",
    "module is reached from no entry point",
    "No CLI command, experiment, registry or simulation path imports "
    "this module, so nothing it computes reaches a reported result; "
    "only its own tests make it look alive. Delete it, import it where "
    "it is needed, or keep an intended API under a reasoned suppression.",
)

#: The one root of the import walk: ``python -m repro``, whose CLI
#: imports every command, experiment registry and lint rule.
ROOT_MODULE = "repro.__main__"

#: (dotted module, name) work item. ``""`` runs the module, ``"*"``
#: uses it as a module object, anything else asks it for that name.
_Item = Tuple[str, str]


def check_dead_modules(graph: CallGraph) -> List[Finding]:
    """DEAD001 for each ``repro`` module :data:`ROOT_MODULE` never reaches."""
    if ROOT_MODULE not in graph.modules:
        return []
    reached = _reachable_modules(graph, ROOT_MODULE)
    package = ROOT_MODULE.split(".")[0]
    findings: List[Finding] = []
    for dotted in sorted(graph.modules):
        if dotted in reached or dotted.split(".")[0] != package:
            continue
        module = graph.modules[dotted]
        findings.append(
            Finding(
                path=display_path(module.path),
                line=module.tree.body[0].lineno if module.tree.body else 1,
                col=0,
                rule_id=DEAD001,
                message=(
                    f"module {dotted} is reached from no entry point "
                    f"(nothing imports it from {ROOT_MODULE})"
                ),
            )
        )
    return findings


def _reachable_modules(graph: CallGraph, root: str) -> Set[str]:
    """Dotted names of every analysed module the walk from ``root`` runs."""
    exports = {
        dotted: _reexports(graph, module)
        for dotted, module in graph.modules.items()
        if module.is_package
    }
    reached: Set[str] = set()
    seen: Set[_Item] = set()
    work: List[_Item] = [(root, "")]
    while work:
        item = work.pop()
        if item in seen:
            continue
        seen.add(item)
        dotted, name = item
        if name:
            work.append((dotted, ""))
            names = exports.get(dotted, {})
            if name == "*":
                for sources in names.values():
                    work.extend(sources)
            else:
                work.extend(names.get(name, ()))
            continue
        parent = dotted.rpartition(".")[0]
        if parent:
            work.append((parent, ""))
        module = graph.modules.get(dotted)
        if module is not None:
            reached.add(dotted)
            work.extend(_edges(graph, module))
    return reached


def _edges(graph: CallGraph, module: ModuleInfo) -> Iterator[_Item]:
    """What running ``module`` imports; an ``__init__``'s re-exports wait."""
    for node in module.imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, "*"
        elif node.module is not None and not node.level:
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                if submodule in graph.modules:
                    yield submodule, "*"
                elif not module.is_package:
                    yield node.module, alias.name


def _reexports(
    graph: CallGraph, package: ModuleInfo
) -> Dict[str, List[_Item]]:
    """Name -> (module, original name) a package ``__init__`` binds it from."""
    names: Dict[str, List[_Item]] = {}
    for node in package.imports:
        if (
            not isinstance(node, ast.ImportFrom)
            or node.level
            or node.module is None
        ):
            continue
        for alias in node.names:
            if f"{node.module}.{alias.name}" not in graph.modules:
                names.setdefault(alias.asname or alias.name, []).append(
                    (node.module, alias.name)
                )
    return names

