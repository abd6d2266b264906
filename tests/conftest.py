"""Shared test fixtures.

CLI commands open the persistent result store at ``$REPRO_CACHE_DIR`` by
default, so tests must never point it at the developer's real
``~/.cache/repro`` — results written by a test run would then leak into
(and stale results leak out of) interactive use. Redirect it to a
throwaway directory at import time, before any test builds a store.
"""

import atexit
import os
import shutil
import tempfile

import pytest

_cache_dir = tempfile.mkdtemp(prefix="repro-test-cache-")
os.environ["REPRO_CACHE_DIR"] = _cache_dir
atexit.register(shutil.rmtree, _cache_dir, True)


@pytest.fixture
def failing_workload():
    """Register a workload whose factory always raises; clean up after."""
    from repro.sweep.spec import WORKLOAD_FACTORIES

    def factory():
        raise RuntimeError("kaboom")

    WORKLOAD_FACTORIES["explosive"] = factory
    yield "explosive"
    del WORKLOAD_FACTORIES["explosive"]
