"""The cluster path's inlined picks and appends equal what they replace.

:func:`repro.cluster.balancer._sample` repeats CPython's
``Random.sample`` inline, the JSQ pick sorts on ``loads.__getitem__``
instead of a ``(load, index)`` tuple key, and an exact-mode
:class:`PercentileTracker` appends through the sample list's own bound
``append``, caching its sort on the sample count. These tests pin each
against the original formulation, so an interpreter release that
changed ``Random.sample`` or ``_randbelow`` fails here before it moves a
golden digest.
"""

import math
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.balancer import (
    JoinShortestQueueBalancer,
    PowerOfDChoicesBalancer,
    RandomBalancer,
    _sample,
)
from repro.simkit.stats import PercentileTracker

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Loads drawn from a small range, so most picks break ties.
TIED_LOADS = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=80), data=st.data())
def test_sample_equals_stdlib(seed, n, data):
    # n spans both branches for k <= 5: the pool swap up to n = 21, the
    # rejection set above. For k = 6..8 the threshold is 85.
    k = data.draw(st.integers(min_value=1, max_value=min(n, 8)), label="k")
    population = data.draw(
        st.sampled_from([range(n), list(range(n)), [3 * i + 1 for i in range(n)]]),
        label="population",
    )
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _sample(ours.getrandbits, population, k) == theirs.sample(population, k)
    assert ours.getrandbits(32) == theirs.getrandbits(32)


def test_sample_rejection_branch_for_every_k():
    # 100 candidates exceed both set-size thresholds (21 and 85), so this
    # is the rejection branch at every k the property test draws.
    for seed in range(50):
        for k in range(1, 9):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _sample(ours.getrandbits, range(100), k) == theirs.sample(
                range(100), k
            )
            assert ours.getstate() == theirs.getstate()


@settings(max_examples=200, deadline=None)
@given(loads=TIED_LOADS, data=st.data())
def test_jsq_pick_equals_tuple_key_sort(loads, data):
    n = len(loads)
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    balancer = JoinShortestQueueBalancer()
    balancer.setup(n, random.Random(0))
    reference = sorted(range(n), key=lambda i: (loads[i], i))[:k]
    assert balancer.pick(k, loads) == reference


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, loads=TIED_LOADS, data=st.data())
def test_power_of_d_pick_equals_stdlib_formulation(seed, loads, data):
    n = len(loads)
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    d = data.draw(st.integers(min_value=1, max_value=4), label="d")
    balancer = PowerOfDChoicesBalancer(d)
    balancer.setup(n, random.Random(seed))
    rng = random.Random(seed)
    available = list(range(n))
    reference = []
    for _ in range(k):
        candidates = rng.sample(available, min(d, len(available)))
        best = min(candidates, key=lambda i: (loads[i], i))
        reference.append(best)
        available.remove(best)
    assert balancer.pick(k, loads) == reference
    assert balancer.rng.getstate() == rng.getstate()


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=1, max_value=40), data=st.data())
def test_random_pick_equals_stdlib_sample(seed, n, data):
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    balancer = RandomBalancer()
    balancer.setup(n, random.Random(seed))
    rng = random.Random(seed)
    for _ in range(5):
        assert balancer.pick(k, [0] * n) == rng.sample(range(n), k)


class _ListTracker:
    """The exact-mode tracker as a plain list and a dirty flag: sorted in
    place on the first query after any ``add``/``add_many``."""

    def __init__(self, samples=(), dirty=False):
        self.samples = list(samples)
        self.dirty = dirty

    def add(self, value):
        self.samples.append(value)
        self.dirty = True

    def add_many(self, values):
        self.samples.extend(values)
        self.dirty = True

    def percentile(self, p):
        if self.dirty:
            self.samples.sort()
            self.dirty = False
        data = self.samples
        if len(data) == 1:
            return data[0]
        rank = (p / 100.0) * (len(data) - 1)
        low, high = int(math.floor(rank)), int(math.ceil(rank))
        if low == high or data[low] == data[high]:
            return data[low]
        frac = rank - low
        return data[low] * (1 - frac) + data[high] * frac

    def mean(self):
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def merge(self, other):
        samples = self.samples + other.samples
        return _ListTracker(samples, dirty=bool(samples))


VALUES = st.floats(min_value=1e-7, max_value=1e-2, allow_nan=False)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), VALUES),
        st.tuples(st.just("add_many"), st.lists(VALUES, max_size=6)),
        st.tuples(st.just("percentile"), st.floats(min_value=0, max_value=100)),
        st.tuples(st.just("mean"), st.none()),
        st.tuples(st.just("merge"), st.lists(VALUES, max_size=6)),
        st.tuples(st.just("merge_all"), st.lists(VALUES, max_size=6)),
        st.tuples(st.just("pickle"), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_exact_tracker_equals_plain_list(ops):
    tracker, reference = PercentileTracker(), _ListTracker()
    for op, arg in ops:
        if op == "add":
            tracker.add(arg)
            reference.add(arg)
        elif op == "add_many":
            tracker.add_many(arg)
            reference.add_many(arg)
        elif op == "percentile":
            if reference.samples:
                assert tracker.percentile(arg).hex() == reference.percentile(arg).hex()
        elif op == "mean":
            assert tracker.mean.hex() == reference.mean().hex()
        elif op in ("merge", "merge_all"):
            other, other_reference = PercentileTracker(), _ListTracker()
            for value in arg:
                other.add(value)
                other_reference.add(value)
            if op == "merge":
                tracker = tracker.merge(other)
            else:
                tracker = PercentileTracker.merge_all([tracker, other])
            reference = reference.merge(other_reference)
        else:
            tracker = pickle.loads(pickle.dumps(tracker))
        assert tracker.count == len(reference.samples)
        assert tracker.samples == reference.samples
    assert tracker.mean.hex() == reference.mean().hex()
