"""Load balancers: how a cluster spreads leaf requests over its nodes.

A :class:`LoadBalancer` picks, for every logical request, the ``fanout``
distinct node indices its leaf sub-requests are sent to. The policies here
are the classic datacenter quartet:

- ``random`` — uniform random distinct nodes; the stateless baseline.
- ``round_robin`` — cyclic assignment; perfectly even in counts but blind
  to in-flight load.
- ``jsq`` — join-shortest-queue: always the least-loaded nodes. The
  centralised ideal (needs global queue visibility).
- ``power_of_two`` — power-of-d-choices (d=2): sample d random candidates
  per leaf and keep the least loaded. Nearly JSQ quality from O(d)
  samples (Mitzenmacher's classic result).

Balancers follow the workload/governor registry pattern of
:mod:`repro.sweep.spec`: factories are looked up by name when a
:class:`~repro.sweep.spec.ScenarioSpec` materialises, and the import-time
snapshot lets the process executor reject parent-only registrations
before submitting to spawn-based worker pools.
"""

from __future__ import annotations

import abc
import random
from math import ceil, log
from typing import Callable, Dict, List, Sequence

from repro.errors import ConfigurationError


def _sample(
    getrandbits: Callable[[int], int], population: Sequence[int], k: int
) -> List[int]:
    """``random.Random.sample(population, k)``, inlined, bit for bit.

    ``getrandbits`` is the bound method of the :class:`random.Random`
    whose ``sample`` this replaces: it draws the same bits, leaves the
    generator in the same state and returns the same list, without the
    ``sample`` and per-index ``_randbelow`` frames. Both of CPython's
    branches are kept: the pool swap while an ``n``-list is smaller than
    a ``k``-set, and the rejection set above that. Each index is
    ``_randbelow_with_getrandbits``: draw ``n.bit_length()`` bits and
    reject values ``>= n``. Pinned against the stdlib by
    ``tests/test_inlined_picks.py``.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    result = [0] * k
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            below = n - i
            bits = below.bit_length()
            j = getrandbits(bits)
            while j >= below:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[below - 1]  # move non-selected item into vacancy
    else:
        bits = n.bit_length()
        selected = set()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result[i] = population[j]
    return result


class LoadBalancer(abc.ABC):
    """Picks the target nodes of each logical request's leaves.

    Call :meth:`setup` once per run (node count, seeded RNG), then
    :meth:`pick` once per logical request (and once per hedge decision).
    Implementations must be deterministic functions of the RNG stream and
    the observed loads, so cluster runs stay bit-reproducible.

    ``pick`` runs once per logical request, so the built-in policies
    test their arguments with one chained comparison and call
    :meth:`_check_pick` only to raise the specific error.
    """

    #: Registry name (set by subclasses).
    name = "base"

    def __init__(self) -> None:
        self.n_nodes = 0
        self.rng = random.Random(0)

    def setup(self, n_nodes: int, rng: random.Random) -> None:
        """Bind to a cluster: node count and the run's balancer RNG."""
        if n_nodes <= 0:
            raise ConfigurationError(f"need at least one node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.rng = rng

    @abc.abstractmethod
    def pick(self, k: int, loads: Sequence[int]) -> List[int]:
        """``k`` distinct node indices for one logical request's leaves.

        Args:
            k: leaf count (the spec's ``fanout``), ``1 <= k <= n_nodes``.
            loads: per-node in-flight request counts (queued + in
                service), indexed by node.
        """

    def _check_pick(self, k: int, loads: Sequence[int]) -> None:
        """Raise on a pick before :meth:`setup`, a fanout outside
        ``[1, n_nodes]`` or a load vector of the wrong length.

        ``1 <= k <= self.n_nodes == len(loads)`` is true exactly when
        none of these raises.
        """
        if self.n_nodes <= 0:
            raise ConfigurationError("balancer used before setup()")
        if not 1 <= k <= self.n_nodes:
            raise ConfigurationError(
                f"fanout {k} must be in [1, {self.n_nodes}] (nodes)"
            )
        if len(loads) != self.n_nodes:
            raise ConfigurationError(
                f"got {len(loads)} loads for {self.n_nodes} nodes"
            )


class RandomBalancer(LoadBalancer):
    """Uniform random distinct nodes; ignores load entirely."""

    name = "random"

    def pick(self, k: int, loads: Sequence[int]) -> List[int]:
        if not 1 <= k <= self.n_nodes == len(loads):
            self._check_pick(k, loads)
        return _sample(self.rng.getrandbits, range(self.n_nodes), k)


class RoundRobinBalancer(LoadBalancer):
    """Cyclic assignment: each leaf advances the cursor by one."""

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def pick(self, k: int, loads: Sequence[int]) -> List[int]:
        if not 1 <= k <= self.n_nodes == len(loads):
            self._check_pick(k, loads)
        targets = [(self._cursor + j) % self.n_nodes for j in range(k)]
        self._cursor = (self._cursor + k) % self.n_nodes
        return targets


class JoinShortestQueueBalancer(LoadBalancer):
    """The k least-loaded nodes (ties broken by lowest index)."""

    name = "jsq"

    def pick(self, k: int, loads: Sequence[int]) -> List[int]:
        if not 1 <= k <= self.n_nodes == len(loads):
            self._check_pick(k, loads)
        # sorted() is stable over ascending indices, so equal loads keep
        # index order: the (loads[i], i) key without a frame per node.
        return sorted(range(self.n_nodes), key=loads.__getitem__)[:k]


class PowerOfDChoicesBalancer(LoadBalancer):
    """Per leaf: sample ``d`` random candidates, keep the least loaded.

    With ``d=2`` this is the classic power-of-two-choices policy; a
    fanned-out request still spreads over distinct nodes because each
    chosen node is removed from the candidate pool for the remaining
    leaves (the loads snapshot itself is fixed for the whole pick).
    """

    name = "power_of_two"

    def __init__(self, d: int = 2) -> None:
        super().__init__()
        if d < 1:
            raise ConfigurationError(f"need d >= 1 choices, got {d}")
        self.d = d

    def pick(self, k: int, loads: Sequence[int]) -> List[int]:
        if not 1 <= k <= self.n_nodes == len(loads):
            self._check_pick(k, loads)
        getrandbits = self.rng.getrandbits
        d = self.d
        available = list(range(self.n_nodes))
        targets: List[int] = []
        for _ in range(k):
            candidates = _sample(getrandbits, available, min(d, len(available)))
            # The least (loads[i], i), compared directly.
            best = candidates[0]
            best_load = loads[best]
            for i in candidates:
                load = loads[i]
                if load < best_load or (load == best_load and i < best):
                    best = i
                    best_load = load
            targets.append(best)
            available.remove(best)
        return targets


#: Balancers that never read the cross-node load vector: their pick
#: sequence is a function of the RNG stream / cursor alone. Only these
#: admit partitioned (per-node independent arrival stream) execution and
#: therefore sharding — jsq and power_of_two read live queue depths
#: across all nodes, which requires one shared simulator. Name-based on
#: purpose: a custom registered balancer is conservatively treated as
#: stateful.
STATELESS_BALANCERS = frozenset({"random", "round_robin"})

#: Balancer factories by name. Extend via :func:`register_balancer`.
BALANCER_FACTORIES: Dict[str, Callable[[], LoadBalancer]] = {
    "random": RandomBalancer,
    "round_robin": RoundRobinBalancer,
    "jsq": JoinShortestQueueBalancer,
    "power_of_two": PowerOfDChoicesBalancer,
}

#: Import-time snapshot, mirroring the workload/governor registries:
#: spawn-based worker pools only see factories registered at import time.
IMPORT_TIME_BALANCER_FACTORIES = dict(BALANCER_FACTORIES)


def register_balancer(name: str, factory: Callable[[], LoadBalancer]) -> None:
    """Register a balancer factory under ``name`` for use in specs."""
    BALANCER_FACTORIES[name] = factory


def make_balancer(name: str) -> LoadBalancer:
    """A fresh balancer instance by registry name.

    Raises:
        ConfigurationError: on an unknown name.
    """
    try:
        factory = BALANCER_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown balancer {name!r}; choose from {sorted(BALANCER_FACTORIES)}"
        ) from None
    return factory()
