"""Lightweight project call graph / points-to for process-boundary rules.

The CONC rules (:mod:`repro.analyze.conc`) need to know, for every
callable and argument handed to ``ProcessPoolExecutor.submit``/``map``
or ``multiprocessing.Process(target=...)``, which functions can execute
in the *worker* process. This module builds that picture from nothing
but the stdlib AST of the analysed file set:

- an index of every module, top-level function, class and method;
- the **submission sites** — calls whose arguments cross a process
  boundary, found syntactically: any ``.submit(fn, ...)``, ``pool.map(
  fn, ...)`` where ``pool`` is bound to a ``ProcessPoolExecutor`` in an
  enclosing scope, and ``Process(target=fn, args=...)`` constructions;
- a conservative call graph. Direct calls resolve by name within the
  module and through ``import`` / ``from ... import`` edges;
  ``Class.method(...)`` and ``self.method(...)`` resolve against indexed
  classes; a bare method call (``obj.m()``) resolves only when exactly
  one indexed class defines ``m`` — ambiguity truncates the edge rather
  than inventing one. Function references passed as call arguments
  (callback registration) count as edges too, since the callee will
  eventually invoke them;
- the **worker-reachable set**: the closure of the call graph over every
  resolved submitted callable.

The pass is deliberately approximate — it is a linter, not a verifier.
Unresolved edges shrink the reachable set (possible false negatives);
they never grow it, so every finding built on reachability points at a
real submission path.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "ModuleInfo",
    "SubmissionSite",
    "attribute_chain",
    "local_binding",
    "module_dotted_name",
]

#: Constructor names that create a process-pool object; ``name.map``
#: calls are only treated as submission sites when ``name`` is bound to
#: one of these in an enclosing scope (plain ``.map`` is far too common).
_POOL_CTOR_NAMES = frozenset({"ProcessPoolExecutor"})
_POOL_CTOR_CHAINS = frozenset({("multiprocessing", "Pool")})


def module_dotted_name(path: str) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` dir.

    ``src/repro/sweep/runner.py`` and ``/tmp/x/repro/sweep/runner.py``
    both map to ``repro.sweep.runner``, so fixture trees resolve their
    cross-module imports exactly like the real tree. Files outside any
    ``repro`` directory map to their bare stem.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            tail = parts[index:]
            break
    else:
        tail = [parts[-1]]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__" and len(tail) > 1:
        tail = tail[:-1]
    return ".".join(tail)


def attribute_chain(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None if the base is not a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def local_binding(
    scope_stack: Sequence[ast.AST], name: str
) -> Optional[ast.AST]:
    """The AST node ``name`` is bound to in the innermost enclosing scope.

    Recognises nested ``def``s, simple ``name = <expr>`` assigns,
    annotated assigns, and ``with <expr> as name``. Returns the bound
    value (the function node itself for a ``def``) or None when the name
    is not a local of any enclosing function.
    """
    for scope in reversed(list(scope_stack)):
        for node in ast.walk(scope):
            if node is scope:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == name:
                    return node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if (
                    isinstance(target, ast.Name)
                    and target.id == name
                    and node.value is not None
                ):
                    return node.value
            elif isinstance(node, ast.withitem):
                vars_ = node.optional_vars
                if isinstance(vars_, ast.Name) and vars_.id == name:
                    return node.context_expr
    return None


@dataclass(eq=False)
class FunctionInfo:
    """One indexed function or method (identity-hashed graph node)."""

    module: "ModuleInfo"
    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None

    @property
    def label(self) -> str:
        """``repro.sweep.runner._execute_spec_dict`` — for messages."""
        return f"{self.module.dotted}.{self.qualname}"


@dataclass(eq=False)
class SubmissionSite:
    """One call whose arguments cross a process boundary."""

    module: "ModuleInfo"
    call: ast.Call
    api: str  # "submit" | "map" | "process"
    callable_expr: Optional[ast.expr]
    data_args: List[ast.expr] = field(default_factory=list)
    #: Nearest *indexed* enclosing function (None at module level).
    enclosing: Optional[FunctionInfo] = None
    #: Enclosing function AST nodes, outermost first (for local lookup).
    scope_stack: Tuple[ast.AST, ...] = ()


class ModuleInfo:
    """Per-module symbol tables feeding the call graph."""

    __slots__ = (
        "path",
        "dotted",
        "tree",
        "functions",
        "classes",
        "module_aliases",
        "from_imports",
        "imports",
        "mutable_globals",
    )

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.dotted = module_dotted_name(path)
        self.tree = tree
        #: Top-level functions by name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Class name -> method name -> info.
        self.classes: Dict[str, Dict[str, FunctionInfo]] = {}
        #: Local name -> dotted module (``import x.y as z`` and plain).
        self.module_aliases: Dict[str, str] = {}
        #: Local name -> (module, original name) for ``from m import n``.
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: Every import statement, lazy ones included, in walk order.
        self.imports: List[Union[ast.Import, ast.ImportFrom]] = []
        #: Module-level mutable containers: name -> binding line.
        self.mutable_globals: Dict[str, int] = {}
        self._index()

    def _index(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = FunctionInfo(
                    self, stmt.name, stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                methods: Dict[str, FunctionInfo] = {}
                for item in stmt.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        methods[item.name] = FunctionInfo(
                            self,
                            f"{stmt.name}.{item.name}",
                            item,
                            cls=stmt.name,
                        )
                self.classes[stmt.name] = methods
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and _is_mutable_ctor(
                        stmt.value
                    ):
                        self.mutable_globals[target.id] = stmt.lineno
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if (
                    isinstance(target, ast.Name)
                    and stmt.value is not None
                    and _is_mutable_ctor(stmt.value)
                ):
                    self.mutable_globals[target.id] = stmt.lineno
        # Imports anywhere, including lazy function-level ones: the
        # graph must follow `from repro.cluster.sharding import ...`
        # inside ScenarioSpec.execute.
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.append(node)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports stay unresolved
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def alias_submodule_imports(self, analysed: Collection[str]) -> None:
        """Record ``from pkg import sub`` as a module alias of ``pkg.sub``
        when that is an analysed module, so ``sub.f()`` resolves like it
        would after ``import pkg.sub as sub``."""
        for local, (module, name) in self.from_imports.items():
            dotted = f"{module}.{name}"
            if dotted in analysed:
                self.module_aliases[local] = dotted

    @property
    def is_package(self) -> bool:
        """Whether this module is a package ``__init__``."""
        return os.path.basename(self.path) == "__init__.py"

    def resolve_module_prefix(
        self, chain: Tuple[str, ...]
    ) -> Optional[str]:
        """Dotted module named by all but the last element of ``chain``."""
        if len(chain) < 2:
            return None
        prefix = ".".join(chain[:-1])
        if prefix in self.module_aliases:
            return self.module_aliases[prefix]
        head = self.module_aliases.get(chain[0])
        if head is not None and len(chain) > 2:
            return ".".join((head,) + chain[1:-1])
        return None


def _is_mutable_ctor(expr: ast.expr) -> bool:
    """Literal/constructor expressions that create a mutable container."""
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in (
            "dict", "list", "set", "defaultdict", "deque", "OrderedDict",
            "Counter",
        ):
            return True
        chain = attribute_chain(expr.func)
        if chain is not None and chain[-1] in (
            "defaultdict", "deque", "OrderedDict", "Counter",
        ):
            return True
    return False


def _is_pool_ctor(expr: ast.expr) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    if isinstance(expr.func, ast.Name):
        return expr.func.id in _POOL_CTOR_NAMES
    chain = attribute_chain(expr.func)
    if chain is None:
        return False
    return chain[-1] in _POOL_CTOR_NAMES or chain in _POOL_CTOR_CHAINS


def _pool_names(scope_body: Sequence[ast.stmt]) -> Set[str]:
    """Names bound to a process pool anywhere in one scope body."""
    names: Set[str] = set()
    for stmt in scope_body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Assign) and _is_pool_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.withitem) and _is_pool_ctor(
                node.context_expr
            ):
                vars_ = node.optional_vars
                if isinstance(vars_, ast.Name):
                    names.add(vars_.id)
    return names


class _SiteCollector(ast.NodeVisitor):
    """Finds submission sites in one module, tracking enclosing scopes."""

    def __init__(self, graph: "CallGraph", module: ModuleInfo) -> None:
        self.graph = graph
        self.module = module
        self.sites: List[SubmissionSite] = []
        self._stack: List[ast.AST] = []
        self._module_pools = _pool_names(module.tree.body)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def _enclosing(self) -> Optional[FunctionInfo]:
        for scope in reversed(self._stack):
            info = self.graph.info_by_node.get(id(scope))
            if info is not None:
                return info
        return None

    def _is_pool_name(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Name):
            return False
        if expr.id in self._module_pools:
            return True
        for scope in self._stack:
            body = getattr(scope, "body", None)
            if body and expr.id in _pool_names(body):
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        site = self._classify(node)
        if site is not None:
            self.sites.append(site)
        self.generic_visit(node)

    def _classify(self, node: ast.Call) -> Optional[SubmissionSite]:
        func = node.func
        common = dict(
            module=self.module,
            call=node,
            enclosing=self._enclosing(),
            scope_stack=tuple(self._stack),
        )
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            return SubmissionSite(
                api="submit",
                callable_expr=node.args[0] if node.args else None,
                data_args=list(node.args[1:])
                + [kw.value for kw in node.keywords],
                **common,
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "map"
            and self._is_pool_name(func.value)
        ):
            return SubmissionSite(
                api="map",
                callable_expr=node.args[0] if node.args else None,
                data_args=list(node.args[1:]),
                **common,
            )
        if self._is_process_ctor(func):
            target: Optional[ast.expr] = None
            data: List[ast.expr] = []
            for kw in node.keywords:
                if kw.arg == "target":
                    target = kw.value
                elif kw.arg == "args" and isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    data.extend(kw.value.elts)
                elif kw.arg == "kwargs" and isinstance(kw.value, ast.Dict):
                    data.extend(v for v in kw.value.values if v is not None)
                elif kw.arg not in ("daemon", "name"):
                    data.append(kw.value)
            if target is None and node.args:
                # Positional Process(group, target, ...) signature.
                target = node.args[1] if len(node.args) > 1 else None
            if target is None:
                return None
            return SubmissionSite(
                api="process", callable_expr=target, data_args=data,
                **common,
            )
        return None

    def _is_process_ctor(self, func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            origin = self.module.from_imports.get(func.id)
            return origin is not None and origin == (
                "multiprocessing", "Process",
            )
        chain = attribute_chain(func)
        if chain is None or chain[-1] != "Process":
            return False
        dotted = self.module.resolve_module_prefix(chain)
        return dotted == "multiprocessing"


class CallGraph:
    """Project-wide call graph over an analysed file set."""

    def __init__(self, paths: Sequence[str]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: id(function AST node) -> info, for enclosing-scope lookup.
        self.info_by_node: Dict[int, FunctionInfo] = {}
        self.method_index: Dict[str, List[FunctionInfo]] = {}
        for path in paths:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
            except (OSError, SyntaxError, ValueError):
                continue  # unreadable/unparseable: ANA004 reports it
            module = ModuleInfo(path, tree)
            self.modules[module.dotted] = module
        for module in self.modules.values():
            module.alias_submodule_imports(self.modules)
        for module in self.modules.values():
            for info in module.functions.values():
                self.info_by_node[id(info.node)] = info
            for methods in module.classes.values():
                for info in methods.values():
                    self.info_by_node[id(info.node)] = info
                    self.method_index.setdefault(
                        info.node.name, []  # type: ignore[attr-defined]
                    ).append(info)
        self.sites: List[SubmissionSite] = []
        for module in self.modules.values():
            collector = _SiteCollector(self, module)
            collector.visit(module.tree)
            self.sites.extend(collector.sites)

    # -- resolution --------------------------------------------------

    def _unique_method(self, name: str) -> Optional[FunctionInfo]:
        candidates = self.method_index.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _class_methods(
        self, name: str, module: ModuleInfo
    ) -> Optional[Dict[str, FunctionInfo]]:
        if name in module.classes:
            return module.classes[name]
        origin = module.from_imports.get(name)
        if origin is not None:
            other = self.modules.get(origin[0])
            if other is not None:
                return other.classes.get(origin[1])
        return None

    def resolve_callable(
        self,
        expr: ast.expr,
        module: ModuleInfo,
        scope_stack: Sequence[ast.AST] = (),
        enclosing: Optional[FunctionInfo] = None,
    ) -> Optional[FunctionInfo]:
        """The indexed function ``expr`` evaluates to, if determinable."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if local_binding(scope_stack, name) is not None:
                return None  # nested def / local rebind: not indexed
            if name in module.functions:
                return module.functions[name]
            if name in module.classes:
                return module.classes[name].get("__init__")
            origin = module.from_imports.get(name)
            if origin is not None:
                other = self.modules.get(origin[0])
                if other is not None:
                    if origin[1] in other.functions:
                        return other.functions[origin[1]]
                    if origin[1] in other.classes:
                        return other.classes[origin[1]].get("__init__")
            return None
        if isinstance(expr, ast.Attribute):
            chain = attribute_chain(expr)
            if chain is None:
                # Base is a call/subscript: obj.m() with unknown obj.
                return self._unique_method(expr.attr)
            if chain[0] == "self" and len(chain) == 2:
                if enclosing is not None and enclosing.cls is not None:
                    methods = module.classes.get(enclosing.cls, {})
                    resolved = methods.get(chain[1])
                    if resolved is not None:
                        return resolved
                return self._unique_method(chain[1])
            if len(chain) == 2:
                methods = self._class_methods(chain[0], module)
                if methods is not None:
                    return methods.get(chain[1])
            dotted = module.resolve_module_prefix(chain)
            if dotted is not None:
                other = self.modules.get(dotted)
                if other is None:
                    return None  # known external module: never guess
                if chain[-1] in other.functions:
                    return other.functions[chain[-1]]
                if chain[-1] in other.classes:
                    return other.classes[chain[-1]].get("__init__")
                return None
            return self._unique_method(chain[-1])
        return None

    # -- reachability ------------------------------------------------

    def submitted_roots(self) -> List[FunctionInfo]:
        """Resolved worker entry points, one per resolvable site."""
        roots: List[FunctionInfo] = []
        for site in self.sites:
            expr = site.callable_expr
            if expr is None:
                continue
            if isinstance(expr, ast.Call):  # functools.partial(f, ...)
                expr = expr.args[0] if expr.args else None
                if expr is None:
                    continue
            info = self.resolve_callable(
                expr, site.module, site.scope_stack, site.enclosing
            )
            if info is not None:
                roots.append(info)
        return roots

    def callees(self, info: FunctionInfo) -> List[FunctionInfo]:
        """Resolved direct callees and passed function references."""
        out: List[FunctionInfo] = []
        scope_stack = (info.node,)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.resolve_callable(
                node.func, info.module, scope_stack, info
            )
            if resolved is not None:
                out.append(resolved)
            for arg in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    ref = self.resolve_callable(
                        arg, info.module, scope_stack, info
                    )
                    if ref is not None:
                        out.append(ref)
        return out

    def worker_reachable(self) -> Set[FunctionInfo]:
        """Closure of the call graph over every submitted callable."""
        seen: Set[FunctionInfo] = set()
        frontier = self.submitted_roots()
        while frontier:
            info = frontier.pop()
            if info in seen:
                continue
            seen.add(info)
            frontier.extend(self.callees(info))
        return seen
