"""Content-addressed, crash-safe result store (``hetpipe-result/1``).

* :mod:`repro.store.core` — :class:`ResultStore`: schema-tagged result
  records keyed by ``spec_hash``, committed with atomic write-rename,
  verified on read against an embedded sha256 checksum (corruption is
  quarantined, never crashes a sweep), indexed by a file-lock-guarded
  manifest so parallel sweeps can share one store.
* :mod:`repro.store.lock` — :class:`FileLock`, the advisory inter-process
  lock guarding manifest updates.

``repro sweep --store DIR`` streams every completed point into a store
the moment it finishes and ``--resume`` skips points whose verified
entry already exists; ``repro store {ls,verify,gc,quarantine}`` are the
maintenance verbs.
"""

from repro.store.core import (
    RESULT_SCHEMA,
    ResultRecord,
    ResultStore,
)
from repro.store.lock import FileLock

__all__ = [
    "RESULT_SCHEMA",
    "ResultRecord",
    "ResultStore",
    "FileLock",
]
