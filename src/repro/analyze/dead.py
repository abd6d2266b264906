"""DEAD-series: modules and definitions no entry point reaches.

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

DEAD002 then walks names inside the reached modules, to a fixed point.
Reached code is every reached module's module-level statements (an
``__all__`` listing aside), the body of each reached definition, and the
class-level statements of each reached class. A module-level function or
class is reached when reached code names it: as a ``Name``, as an
``Attribute`` (matched by name, whatever the receiver) or as an
identifier string such as ``getattr(store, "put_many", None)``'s. A
method is reached the same way, but only once its class is. The roots:

- the module-level statements of :data:`ROOT_MODULE` and every module
  it reaches;
- definitions decorated by a function defined in the analysed set, the
  registries (``@register_experiment``, ``@rule``; ``@dataclass`` is not
  one);
- dunder methods of reached classes (protocols and pickle hooks) and
  their ``visit_*`` methods, which ``ast.NodeVisitor`` calls by name;
- every name a script in :data:`SCRIPT_DIRS` beside ``src/`` uses.

Tests are not roots. Modules DEAD001 flags are not walked, so their
definitions draw no second finding. Imports are not uses either: a
re-export alone keeps nothing alive.

Both rules run only when the analysed set contains
``repro/__main__.py``. DEAD001 reports each module at its first statement and DEAD002
each definition at its ``def``/``class`` line, so a reasoned
``allow[DEAD001]``/``allow[DEAD002]`` comment on that line, or on a
comment-only line above it, suppresses the finding.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

DEAD002 = declare_rule(
    "DEAD002",
    "function, method or class is reached from no entry point",
    "Its module runs, but no reached code, registry, protocol hook, "
    "example or benchmark script names it, so only its own tests call "
    "it. Delete it, call it where it is needed, or keep it under a "
    "reasoned suppression.",
)

#: Script directories next to the analysed ``src/``: CI runs every
#: example and the benchmark harness, so the names they use are roots.
SCRIPT_DIRS = ("examples", "perfbench")

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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Symbol:
    """A module-level function or class, or a method of such a class."""

    __slots__ = ("module", "node", "name", "owner", "rooted")

    def __init__(self, module: ModuleInfo, node, owner, registries: Set[str]):
        self.module = module
        self.node = node
        self.name: str = node.name
        self.owner: Optional[_Symbol] = owner
        self.rooted = any(
            _decorator_name(dec) in registries for dec in node.decorator_list
        ) or (owner is not None and (
            self.name.startswith("visit_") or _is_dunder(self.name)
        ))

    def code(self) -> List[ast.AST]:
        """What reaching this definition runs; a class's methods wait."""
        node = self.node
        if not isinstance(node, ast.ClassDef):
            return [node]
        return [*node.bases, *node.keywords, *node.decorator_list] + [
            stmt for stmt in node.body if not isinstance(stmt, _FUNCTIONS)
        ]


def check_dead_symbols(graph: CallGraph) -> List[Finding]:
    """DEAD002 for each definition in a reached module nothing names."""
    if ROOT_MODULE not in graph.modules:
        return []
    registries = {
        name for module in graph.modules.values() for name in module.functions
    }
    names = _script_names(graph.modules[ROOT_MODULE].path)
    symbols: List[_Symbol] = []
    for dotted in sorted(_reachable_modules(graph, ROOT_MODULE)):
        module = graph.modules[dotted]
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                owner = _Symbol(module, stmt, None, registries)
                symbols.append(owner)
                symbols.extend(
                    _Symbol(module, item, owner, registries)
                    for item in stmt.body
                    if isinstance(item, _FUNCTIONS)
                )
            elif isinstance(stmt, _FUNCTIONS):
                symbols.append(_Symbol(module, stmt, None, registries))
            elif not _binds_all(stmt):
                names |= _names([stmt])
    # A method counts only once its class is reached: seeding the set
    # with None lets a module-level symbol pass the same owner test.
    reached: Set[Optional[_Symbol]] = {None}
    grew = True
    while grew:  # a newly reached body can name earlier symbols
        grew = False
        for symbol in symbols:
            if symbol in reached or symbol.owner not in reached:
                continue
            if symbol.rooted or symbol.name in names:
                reached.add(symbol)
                names |= _names(symbol.code())
                grew = True
    findings: List[Finding] = []
    for symbol in symbols:
        if symbol in reached or symbol.owner not in reached:
            continue
        kind = "method" if symbol.owner else (
            "class" if isinstance(symbol.node, ast.ClassDef) else "function"
        )
        qualname = ".".join(
            s.name for s in (symbol.owner, symbol) if s is not None
        )
        findings.append(
            Finding(
                path=display_path(symbol.module.path),
                line=symbol.node.lineno,
                col=symbol.node.col_offset,
                rule_id=DEAD002,
                message=(
                    f"{kind} {symbol.module.dotted}.{qualname} is reached "
                    f"from no entry point (nothing reached from "
                    f"{ROOT_MODULE} names it)"
                ),
            )
        )
    return findings


def _names(code: List[ast.AST]) -> Set[str]:
    """Every name ``code`` uses: variables, attributes (whatever the
    receiver) and identifier strings, such as ``getattr``'s."""
    found: Set[str] = set()
    for root in code:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    found.add(node.value)
    return found


def _script_names(main_path: str) -> Set[str]:
    """Names used by the :data:`SCRIPT_DIRS` scripts beside ``src/``."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(main_path)
    )))
    names: Set[str] = set()
    for directory in SCRIPT_DIRS:
        scripts = os.path.join(root, directory)
        if not os.path.isdir(scripts):
            continue
        for entry in sorted(os.listdir(scripts)):
            if not entry.endswith(".py"):
                continue
            try:
                with open(os.path.join(scripts, entry), "rb") as handle:
                    names |= _names([ast.parse(handle.read())])
            except (OSError, SyntaxError, ValueError):
                continue  # an unreadable script names nothing
    return names


def _binds_all(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` assigns ``__all__``: listing a name is no use."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in targets
    )


def _decorator_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_dunder(name: str) -> bool:
    return len(name) > 4 and name.startswith("__") and name.endswith("__")
