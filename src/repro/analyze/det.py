"""DET-series rules: determinism hazards in simulation packages.

Everything inside :data:`~repro.analyze.rules.SIMULATION_PACKAGES` must
be a pure function of the :class:`~repro.sweep.spec.ScenarioSpec` — that
is what makes serial, process-pool and sharded executors bit-identical
and what lets the result store treat a cache key as a proof of identity.
These rules flag the classic ways Python code silently stops being such
a function: process-global RNG state, wall clocks, unordered-collection
iteration feeding arithmetic, and address-dependent identities.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analyze.findings import Finding
from repro.analyze.rules import (
    FileContext,
    Rule,
    attribute_chain,
    is_sorted_call,
    rule,
)

#: ``random`` module functions that consume or reseed the *shared*
#: module-level Mersenne Twister. ``random.Random(seed)`` instances are
#: the sanctioned alternative (every stream in the tree derives from the
#: spec seed).
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes", "binomialvariate", "seed",
    }
)

#: ``numpy.random`` constructors that are fine *when given a seed*.
_NP_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "RandomState", "Generator", "SeedSequence", "PCG64"}
)

#: Wall-clock reads: anything whose value depends on when (or how fast)
#: the host runs the simulation rather than on the spec.
_TIME_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


@rule
class UnseededStdlibRandom(Rule):
    """Module-level ``random.*`` calls draw from one process-global,
    implicitly-seeded Mersenne Twister. Results then depend on import
    order, on how many points a worker simulated before this one, and on
    which executor ran it — the exact cross-executor bit-identity the
    golden-digest suite pins. Derive a ``random.Random(seed)`` from the
    spec seed instead (``random.seed(...)`` is equally banned: it
    clobbers the shared stream for every other caller in the process)."""

    id = "DET001"
    title = "unseeded module-level random.* call in simulation code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_simulation_package:
            return
        aliases = ctx.module_aliases("random")
        named = {
            local: original
            for local, original in ctx.from_imports("random").items()
            if original in _GLOBAL_RNG_FUNCS
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if (
                chain is not None
                and len(chain) == 2
                and chain[0] in aliases
                and chain[1] in _GLOBAL_RNG_FUNCS
            ):
                yield self.finding(
                    ctx, node,
                    f"random.{chain[1]}() uses the process-global RNG; "
                    "derive a random.Random(seed) from the spec seed",
                )
            elif isinstance(node.func, ast.Name) and node.func.id in named:
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() (from random import "
                    f"{named[node.func.id]}) uses the process-global RNG; "
                    "derive a random.Random(seed) from the spec seed",
                )


@rule
class UnseededNumpyRandom(Rule):
    """``numpy.random.*`` module-level calls share NumPy's global
    ``RandomState``, with the same cross-executor hazards as DET001 plus
    one more: the global stream is shared with any library code that
    also draws from it. Only explicitly seeded constructors
    (``default_rng(seed)``, ``RandomState(seed)``...) are deterministic."""

    id = "DET002"
    title = "numpy.random module-level call (or unseeded constructor)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_simulation_package:
            return
        np_aliases = ctx.module_aliases("numpy")
        random_aliases = {
            local
            for local, original in ctx.from_imports("numpy").items()
            if original == "random"
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            func = None
            if len(chain) == 3 and chain[0] in np_aliases and chain[1] == "random":
                func = chain[2]
            elif len(chain) == 2 and chain[0] in random_aliases:
                func = chain[1]
            if func is None:
                continue
            if func in _NP_SEEDED_CONSTRUCTORS and node.args:
                continue  # explicitly seeded generator: deterministic
            yield self.finding(
                ctx, node,
                f"numpy.random.{func}"
                + ("() without a seed" if func in _NP_SEEDED_CONSTRUCTORS
                   else "() uses the global RandomState")
                + "; use numpy.random.default_rng(seed) derived from the "
                "spec seed",
            )


@rule
class WallClockRead(Rule):
    """Simulation code owns a virtual clock (``Simulator.now``); reading
    the host's wall clock (``time.time``, ``datetime.now``, monotonic /
    perf counters) makes an observable depend on machine speed and run
    time, which can never reproduce bit-for-bit. Timing *measurement*
    belongs in perfbench and the store layers, which are outside
    the simulation packages and free to use wall clocks."""

    id = "DET003"
    title = "wall-clock read inside simulation code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_simulation_package:
            return
        time_aliases = ctx.module_aliases("time")
        datetime_aliases = ctx.module_aliases("datetime")
        from_time = {
            local
            for local, original in ctx.from_imports("time").items()
            if original in _TIME_FUNCS
        }
        # `from datetime import datetime, date` class names.
        dt_classes = {
            local
            for local, original in ctx.from_imports("datetime").items()
            if original in {"datetime", "date"}
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is not None:
                if (
                    len(chain) == 2
                    and chain[0] in time_aliases
                    and chain[1] in _TIME_FUNCS
                ):
                    yield self.finding(
                        ctx, node,
                        f"time.{chain[1]}() reads the wall clock; simulation "
                        "time is Simulator.now",
                    )
                elif (
                    chain[-1] in _DATETIME_FUNCS
                    and (
                        (len(chain) == 3 and chain[0] in datetime_aliases)
                        or (len(chain) == 2 and chain[0] in dt_classes)
                    )
                ):
                    yield self.finding(
                        ctx, node,
                        f"{'.'.join(chain)}() reads the wall clock; simulation "
                        "time is Simulator.now",
                    )
            elif isinstance(node.func, ast.Name) and node.func.id in from_time:
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() reads the wall clock; simulation time "
                    "is Simulator.now",
                )


def _set_expressions(scope: ast.AST) -> Set[str]:
    """Names bound to set-typed values by simple assignment in ``scope``."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether ``node`` syntactically builds (or is) an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


@rule
class SetIteration(Rule):
    """Iterating a ``set``/``frozenset`` visits elements in hash order,
    which varies with insertion history and (for strings) with
    ``PYTHONHASHSEED`` across processes. Feeding that order into float
    accumulation, scheduling, or any first-match selection makes results
    executor-dependent. Wrap the iterable in ``sorted(...)`` — the fix is
    one call and the analyzer recognises it."""

    id = "DET004"
    title = "iteration over a set in simulation code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_simulation_package:
            return
        # One file-wide name scope: a name assigned from a set expression
        # anywhere marks that name set-typed everywhere. Conservative,
        # but false positives are one sorted() (or one suppression) away.
        set_names = _set_expressions(ctx.tree)
        for node in ast.walk(ctx.tree):
            target = None
            if isinstance(node, ast.For):
                target = node.iter
            elif isinstance(node, ast.comprehension):
                target = node.iter
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"sum", "min", "max", "list", "tuple"}
                and node.args
            ):
                target = node.args[0]
            if target is None or is_sorted_call(target):
                continue
            if _is_set_expr(target, set_names):
                # Anchor on the iterable: comprehension nodes carry no
                # location of their own.
                yield self.finding(
                    ctx, target,
                    "iteration over a set is hash-ordered and varies "
                    "across processes; wrap it in sorted(...)",
                )


def _iterates_unordered_view(node: ast.AST) -> bool:
    """Whether ``node`` is a bare ``x.items()/.values()/.keys()`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"items", "values", "keys"}
        and not node.args
    )


def _accumulates(body: List[ast.stmt]) -> bool:
    """Whether a loop body folds values into an accumulator."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, (ast.Add, ast.Sub, ast.Mult))
            ):
                return True
    return False


@rule
class UnorderedMergeAccumulation(Rule):
    """On merge paths (folding per-node / per-shard observables into one
    ``RunResult``), iterating ``dict.items()/.values()`` feeds float
    accumulation in dict insertion order. When the dicts being merged
    were built by different executors or decode paths, insertion order —
    and therefore float-addition order, and therefore the low bits of the
    sum — can differ while the dicts compare equal. Iterate
    ``sorted(d.items())`` so accumulation order is a function of the
    *keys*, or suppress with a reason proving order-independence (e.g.
    exact integer counts)."""

    id = "DET005"
    title = "unordered dict-view iteration feeding accumulation on a merge path"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.in_simulation_package and ctx.on_merge_path):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.For)
                and _iterates_unordered_view(node.iter)
                and _accumulates(node.body)
            ):
                yield self.finding(
                    ctx, node,
                    "accumulation over an unsorted dict view on a merge "
                    "path; iterate sorted(...) so float-addition order is "
                    "key-determined",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"sum", "min", "max"}
                and node.args
            ):
                arg = node.args[0]
                iters = []
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    iters = [c.iter for c in arg.generators]
                elif _iterates_unordered_view(arg):
                    iters = [arg]
                if any(_iterates_unordered_view(i) for i in iters):
                    yield self.finding(
                        ctx, node,
                        f"{node.func.id}() over an unsorted dict view on a "
                        "merge path; iterate sorted(...) so reduction order "
                        "is key-determined",
                    )


@rule
class AddressDependentIdentity(Rule):
    """``id()`` is a memory address and the default ``hash()`` of objects
    (and of every ``str`` under hash randomisation) varies per process.
    Using either for ordering, tie-breaking or keys makes event order —
    and thus every downstream observable — differ between the serial and
    process executors. Use explicit sequence numbers (the engine's
    ``seq``) or stable fields instead."""

    id = "DET006"
    title = "id()/hash() used in simulation code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_simulation_package:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"id", "hash"}
                and node.args
            ):
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() is process-dependent (memory address / "
                    "hash randomisation); never use it for ordering or keys "
                    "in simulation code",
                )
