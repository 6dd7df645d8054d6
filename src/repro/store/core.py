"""The content-addressed result store (schema ``hetpipe-result/1``).

Layout of one store directory::

    STORE/
      objects/<key[:2]>/<key>.json   committed records (atomic renames)
      tmp/                           in-flight writes (same filesystem)
      quarantine/                    entries that failed verification
      manifest.json                  lock-guarded index (key -> metadata)
      .lock                          the manifest lock file

Three properties carry the crash-safety story:

* **Atomic commits** — a record is serialized to a unique file under
  ``tmp/`` (flushed and fsync'd), then ``os.replace``'d into
  ``objects/``.  Readers can never observe a partial record: either the
  rename happened and the file is complete, or the entry does not exist.
  A SIGKILL mid-write leaves only a ``tmp/`` leftover for ``gc``.
* **Read-time integrity verification** — every record embeds the sha256
  of its own canonical body.  Reads recompute and compare; truncation,
  bit flips, bad JSON, schema drift, or a key/filename mismatch raise
  the typed :class:`~repro.errors.StoreCorruptionError`.  The sweeping
  path uses :meth:`ResultStore.fetch`, which *quarantines* the damaged
  file (moved to ``quarantine/``) and reports a miss, so corruption
  degrades to a recompute instead of crashing the sweep.
* **Lock-guarded manifest** — object commits are independent renames,
  but the manifest index is a read-modify-write cycle, guarded by
  :class:`~repro.store.lock.FileLock` so parallel sweeps sharing a
  store never interleave partial manifest writes.  The manifest is an
  index, not the truth: lookups go straight to ``objects/`` (a crash
  between object commit and manifest update loses no data), and a
  damaged manifest is rebuilt rather than trusted.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.api.spec import SPEC_SCHEMA, canonical_dumps
from repro.errors import StoreCorruptionError
from repro.store.lock import FileLock

logger = logging.getLogger(__name__)

#: Schema tag embedded in (and verified on) every stored record.
RESULT_SCHEMA = "hetpipe-result/1"

#: Record kinds the store understands; open-ended by design (the store
#: is a dumb content-addressed map), listed here for documentation.
#: "bench" records come from older versions, which kept perf history in
#: the store; stores that hold them still load and verify.
KNOWN_KINDS = ("scenario", "experiment", "bench")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class ResultRecord:
    """One schema-tagged store entry.

    ``key`` is the content address — a ``spec_hash`` for sweep points
    (older ``bench`` records are keyed by their payload hash).
    ``payload`` carries the outcome (for sweep points: ``kind``/``ok``/
    ``summary``/``violations`` plus whatever metrics the producer adds);
    ``spec`` is the canonical RunSpec dict when one exists, so any entry
    can be replayed with ``repro run``; ``provenance`` records who wrote
    it and when (informational — never part of any behavioral
    comparison).
    """

    key: str
    kind: str
    payload: dict[str, Any]
    spec: dict[str, Any] | None = None
    provenance: dict[str, Any] = field(default_factory=dict)

    def body(self) -> dict[str, Any]:
        """The checksummed content (everything but the checksum)."""
        return {
            "schema": RESULT_SCHEMA,
            "key": self.key,
            "kind": self.kind,
            "payload": self.payload,
            "spec": self.spec,
            "provenance": self.provenance,
        }

    def to_dict(self) -> dict[str, Any]:
        body = self.body()
        body["checksum"] = _sha256(canonical_dumps(body))
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_verified_dict(cls, data: Any, path: str) -> "ResultRecord":
        """Parse + verify one entry; any defect raises
        :class:`StoreCorruptionError` naming ``path``."""
        if not isinstance(data, dict):
            raise StoreCorruptionError(path, "entry root is not a JSON object")
        if data.get("schema") != RESULT_SCHEMA:
            raise StoreCorruptionError(
                path,
                f"schema tag {data.get('schema')!r} is not {RESULT_SCHEMA!r}",
            )
        claimed = data.get("checksum")
        if not isinstance(claimed, str):
            raise StoreCorruptionError(path, "missing embedded checksum")
        body = {k: v for k, v in data.items() if k != "checksum"}
        actual = _sha256(canonical_dumps(body))
        if actual != claimed:
            raise StoreCorruptionError(
                path,
                f"checksum mismatch: embedded {claimed[:12]}..., "
                f"content hashes to {actual[:12]}...",
            )
        if not isinstance(data.get("key"), str) or not data["key"]:
            raise StoreCorruptionError(path, "missing key")
        if not isinstance(data.get("payload"), dict):
            raise StoreCorruptionError(path, "payload is not a JSON object")
        return cls(
            key=data["key"],
            kind=data.get("kind", ""),
            payload=data["payload"],
            spec=data.get("spec"),
            provenance=data.get("provenance") or {},
        )


def _default_provenance(tool: str) -> dict[str, Any]:
    return {
        "tool": tool,
        "created": time.time(),
        "pid": os.getpid(),
        "spec_schema": SPEC_SCHEMA,
    }


class ResultStore:
    """A store directory; see the module docstring for the layout."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.tmp_dir = os.path.join(root, "tmp")
        self.quarantine_dir = os.path.join(root, "quarantine")
        self.manifest_path = os.path.join(root, "manifest.json")
        self._lock_path = os.path.join(root, ".lock")
        self._seq = 0  # uniquifier for tmp names within this process

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.json")

    def keys(self) -> Iterator[str]:
        """Committed entry keys, sorted (objects/ is the truth)."""
        if not os.path.isdir(self.objects_dir):
            return
        found: list[str] = []
        for shard in sorted(os.listdir(self.objects_dir)):
            shard_dir = os.path.join(self.objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    found.append(name[: -len(".json")])
        yield from found

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def put(
        self,
        key: str,
        kind: str,
        payload: dict[str, Any],
        spec: dict[str, Any] | None = None,
        tool: str = "repro",
    ) -> str:
        """Commit one record atomically; returns the object path.

        The record becomes visible only through the final
        ``os.replace`` — a crash at any earlier point leaves just a
        ``tmp/`` leftover (cleaned by :meth:`gc`).  Re-putting an
        existing key overwrites it (same content address, same result
        for deterministic producers).
        """
        record = ResultRecord(
            key=key,
            kind=kind,
            payload=payload,
            spec=spec,
            provenance=_default_provenance(tool),
        )
        target = self.path_for(key)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.makedirs(self.tmp_dir, exist_ok=True)
        self._seq += 1
        tmp = os.path.join(self.tmp_dir, f"{os.getpid()}.{self._seq}.{key}.json")
        with open(tmp, "w") as fh:
            fh.write(record.to_json())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        self._update_manifest(
            key,
            {
                "kind": kind,
                "summary": str(payload.get("summary", ""))[:200],
                "created": record.provenance["created"],
            },
        )
        return target

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def load(self, key: str) -> ResultRecord | None:
        """Strict read: ``None`` on a miss, :class:`StoreCorruptionError`
        on any integrity defect (the verifying surfaces use this)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreCorruptionError(path, f"unreadable: {exc}") from None
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # A flipped byte can make the file invalid UTF-8 before it
            # is invalid JSON; both are the same defect class.
            raise StoreCorruptionError(path, f"not valid UTF-8: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreCorruptionError(
                path, f"not valid JSON (truncated write?): {exc}"
            ) from None
        record = ResultRecord.from_verified_dict(data, path)
        if record.key != key:
            raise StoreCorruptionError(
                path, f"entry claims key {record.key[:12]}..., filename says {key[:12]}..."
            )
        return record

    def fetch(self, key: str) -> ResultRecord | None:
        """Graceful read: a corrupted entry is quarantined and reported
        as a miss, so callers recompute instead of crashing."""
        try:
            return self.load(key)
        except StoreCorruptionError as exc:
            quarantined = self.quarantine(key)
            logger.warning(
                "store: %s; moved to %s and treating as a miss "
                "(the point will be recomputed)",
                exc.detail, quarantined,
            )
            return None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def quarantine(self, key: str) -> str | None:
        """Move an entry out of ``objects/``; returns its new path.

        Also the manual invalidation verb: a quarantined entry is a
        miss, so the next ``--resume`` recomputes it.
        """
        source = self.path_for(key)
        if not os.path.exists(source):
            return None
        os.makedirs(self.quarantine_dir, exist_ok=True)
        target = os.path.join(self.quarantine_dir, f"{key}.json")
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(self.quarantine_dir, f"{key}.{suffix}.json")
        os.replace(source, target)
        self._update_manifest(key, None)
        return target

    def verify(self) -> list[tuple[str, str]]:
        """Read-verify every committed entry; returns ``(key, defect)``
        pairs (empty means the store is clean).  Read-only — pair with
        :meth:`quarantine` to act on findings."""
        problems: list[tuple[str, str]] = []
        for key in self.keys():
            try:
                self.load(key)
            except StoreCorruptionError as exc:
                problems.append((key, exc.detail))
        return problems

    def gc(self) -> dict[str, int]:
        """Collect debris: in-flight ``tmp/`` leftovers from killed
        writers, quarantined entries, and manifest rows whose object is
        gone.  Returns removal counts per category."""
        counts = {"tmp": 0, "quarantined": 0, "manifest": 0}
        for directory, label in ((self.tmp_dir, "tmp"), (self.quarantine_dir, "quarantined")):
            if os.path.isdir(directory):
                for name in sorted(os.listdir(directory)):
                    try:
                        os.unlink(os.path.join(directory, name))
                        counts[label] += 1
                    except OSError:  # pragma: no cover - concurrent gc
                        pass
        with FileLock(self._lock_path):
            manifest = self._read_manifest()
            stale = [key for key in manifest if key not in self]
            for key in stale:
                del manifest[key]
                counts["manifest"] += 1
            if stale:
                self._write_manifest(manifest)
        return counts

    def entries(self) -> list[dict[str, Any]]:
        """``ls`` view: one dict per committed entry, manifest metadata
        merged in where present (``objects/`` is authoritative, so
        entries committed by a writer killed before its manifest update
        still appear)."""
        manifest = self._read_manifest()
        return [
            {"key": key, **manifest.get(key, {})}
            for key in self.keys()
        ]

    # ------------------------------------------------------------------
    # manifest plumbing
    # ------------------------------------------------------------------

    def _read_manifest(self) -> dict[str, Any]:
        """Tolerant read: the manifest is an index, so damage degrades
        to an empty index (rebuilt incrementally), never an error."""
        try:
            with open(self.manifest_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(data, dict) or not isinstance(data.get("entries"), dict):
            return {}
        return data["entries"]

    def _write_manifest(self, entries: dict[str, Any]) -> None:
        os.makedirs(self.tmp_dir, exist_ok=True)
        self._seq += 1
        tmp = os.path.join(self.tmp_dir, f"{os.getpid()}.{self._seq}.manifest.json")
        payload = {"schema": RESULT_SCHEMA, "entries": entries}
        with open(tmp, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.manifest_path)

    def _update_manifest(self, key: str, meta: dict[str, Any] | None) -> None:
        """One lock-guarded read-modify-write; ``meta=None`` deletes."""
        os.makedirs(self.root, exist_ok=True)
        with FileLock(self._lock_path):
            manifest = self._read_manifest()
            if meta is None:
                if key not in manifest:
                    return
                del manifest[key]
            else:
                manifest[key] = meta
            self._write_manifest(manifest)
