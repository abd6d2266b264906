"""Persistent result storage for the sweep subsystem.

- :mod:`repro.store.serialize` — exact JSON-safe encoding of
  :class:`~repro.server.metrics.RunResult` (latency samples packed as
  compressed IEEE-754 doubles, so percentiles survive bit-for-bit).
- :mod:`repro.store.result_store` — :class:`ResultStore`, a process-safe
  sqlite map from ``ScenarioSpec.cache_key`` + code-version salt to
  results, layered under the in-memory memo cache by
  :class:`~repro.sweep.SweepRunner` so repeated CLI invocations reuse
  simulated points across processes.
- :mod:`repro.store.db` — :class:`Database`, the sqlite connection
  policy (WAL, busy timeout, one long-lived connection per process and
  thread) that the store and :mod:`repro.distrib.queue` share.
"""

from repro.store.result_store import (
    ResultStore,
    code_version_salt,
    default_store_dir,
)
from repro.store.serialize import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    decode_samples,
    encode_samples,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "ResultStore",
    "code_version_salt",
    "default_store_dir",
    "result_to_dict",
    "result_from_dict",
    "encode_samples",
    "decode_samples",
]
