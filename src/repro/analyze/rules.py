"""Rule base class, registry and the per-file analysis context.

Every rule has a stable id (``DET001`` ...), a one-line title and a
docstring explaining *why* the pattern is hazardous in this codebase;
``repro lint --rules`` prints the catalog straight from these. Rules
register themselves via the :func:`rule` decorator, scope themselves by
package or module (see :class:`FileContext`), and yield
:class:`~repro.analyze.findings.Finding` records from :meth:`Rule.check`.
"""

from __future__ import annotations

import ast
import inspect
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.analyze.findings import Finding

#: Packages whose code runs *inside* a simulation and therefore must be
#: deterministic: any nondeterminism here breaks the bit-identity the
#: executors (serial/process/sharded) are tested to preserve. The store,
#: sweep and CLI layers run outside the simulation and may use wall
#: clocks etc. freely.
SIMULATION_PACKAGES = frozenset(
    {"simkit", "server", "cluster", "uarch", "governor", "workloads"}
)

#: Modules on a merge or hot path, keyed by ``module_key`` (the path
#: below the ``repro`` package root). Merge paths fold per-node /
#: per-shard observables into one result, where iteration order over an
#: unordered collection changes float-accumulation order — exactly the
#: silent bit-identity breaker the DET series exists to catch.
MERGE_PATH_MODULES = frozenset(
    {
        "cluster/cluster.py",
        "cluster/sharding.py",
        "cluster/fanout.py",
        "simkit/sketch.py",
        "simkit/stats.py",
        "server/node.py",
    }
)

#: Modules on the per-event hot path: allocating an
#: :class:`~repro.simkit.engine.Event` there reintroduces the per-event
#: object churn the PR-5 fast path removed (engine.py itself is where
#: Event legitimately lives, so it is not listed).
HOT_PATH_MODULES = frozenset(
    {
        "server/node.py",
        "workloads/loadgen.py",
        "cluster/balancer.py",
        "cluster/cluster.py",
        "cluster/fanout.py",
        "simkit/stats.py",
    }
)


class FileContext:
    """Everything a per-file rule needs: source, AST and module identity.

    Attributes:
        path: display path of the file (as reported in findings).
        source: file contents.
        tree: parsed :mod:`ast` module.
        module_key: path below the ``repro`` package root with forward
            slashes (e.g. ``cluster/cluster.py``), or the basename when
            the file is not under a ``repro`` directory. Test fixtures
            exploit this: a snippet written to ``<tmp>/repro/cluster/x.py``
            scopes exactly like real cluster code.
        package: first segment of ``module_key`` (``cluster``), or
            ``None`` for top-level modules.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.module_key, self.package = _module_identity(path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def in_simulation_package(self) -> bool:
        return self.package in SIMULATION_PACKAGES

    @property
    def on_merge_path(self) -> bool:
        return self.module_key in MERGE_PATH_MODULES

    @property
    def on_hot_path(self) -> bool:
        return self.module_key in HOT_PATH_MODULES

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (lazily built, cached)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

    # -- import maps -------------------------------------------------------
    def module_aliases(self, module: str) -> frozenset:
        """Local names bound to ``module`` by ``import``/``import as``.

        ``import random`` binds ``random``; ``import numpy as np`` binds
        ``np`` for module ``numpy``. Submodule imports count for their
        root (``import numpy.random`` binds ``numpy``).
        """
        names = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if alias.name == module or top == module:
                        names.add(alias.asname or top)
        return frozenset(names)

    def from_imports(self, module: str) -> Dict[str, str]:
        """Local name -> original name for ``from module import ...``."""
        mapping: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                for alias in node.names:
                    mapping[alias.asname or alias.name] = alias.name
        return mapping


def _module_identity(path: str) -> Tuple[str, Optional[str]]:
    """(module_key, package) for a file path; see :class:`FileContext`."""
    parts = path.replace("\\", "/").split("/")
    directories = parts[:-1]
    if "repro" in directories:
        anchor = len(directories) - 1 - directories[::-1].index("repro")
        below = parts[anchor + 1:]
        key = "/".join(below)
        package = below[0] if len(below) > 1 else None
        return key, package
    return parts[-1], None


class Rule:
    """Base class: subclass, set ``id``/``title``, implement ``check``.

    The subclass docstring is the rule's rationale and appears verbatim
    in the ``--rules`` catalog; keep it concrete about why the pattern
    breaks this repository's invariants.
    """

    #: Stable identifier, e.g. ``DET001`` — referenced by suppression
    #: comments and the baseline, so never renumber an existing rule.
    id: str = ""
    #: One-line summary for the catalog.
    title: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


#: Registry of per-file rules by id, in registration (series) order.
RULES: Dict[str, Rule] = {}

#: Ids of findings produced outside per-file rules (project-level SPEC
#: checks and ANA hygiene findings); they join the catalog with a title
#: and rationale but have no ``check`` to run per file.
DECLARED_IDS: Dict[str, Tuple[str, str]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a per-file rule."""
    instance = cls()
    if not instance.id or instance.id in RULES or instance.id in DECLARED_IDS:
        raise ValueError(f"rule id {instance.id!r} is missing or duplicated")
    RULES[instance.id] = instance
    return cls


def declare_rule(rule_id: str, title: str, rationale: str) -> str:
    """Register a rule id that is checked outside the per-file pass."""
    if rule_id in RULES or rule_id in DECLARED_IDS:
        raise ValueError(f"rule id {rule_id!r} duplicated")
    DECLARED_IDS[rule_id] = (title, rationale)
    return rule_id


def known_rule_ids() -> frozenset:
    """Every id a suppression comment may legally reference."""
    return frozenset(RULES) | frozenset(DECLARED_IDS)


def all_rules() -> List[Rule]:
    """The registered per-file rules, in registration order."""
    return list(RULES.values())


def rule_catalog() -> List[Tuple[str, str, str]]:
    """(id, title, rationale) for every known rule, sorted by id."""
    entries = [
        (r.id, r.title, inspect.cleandoc(r.__doc__ or ""))
        for r in RULES.values()
    ]
    entries += [
        (rule_id, title, inspect.cleandoc(rationale))
        for rule_id, (title, rationale) in DECLARED_IDS.items()
    ]
    return sorted(entries)


# -- shared AST helpers ----------------------------------------------------
def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None when the base isn't a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def is_sorted_call(node: ast.AST) -> bool:
    """Whether ``node`` is a ``sorted(...)`` call (the standard fix for
    iterating an unordered collection deterministically)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )
