"""Structured event tracing.

The pipeline engine and the WSP runtime emit trace records (task start /
end, push, pull, wait) through a :class:`Trace`.  Tests use the trace to
assert ordering invariants (FIFO scheduling conditions, staleness bounds)
and the metrics layer uses it to compute waiting and idle time breakdowns.

Every record enters through one method, :meth:`Trace.emit`, with a
:class:`TraceSite` built once per (category, actor, key): the site holds
what does not change from one emit to the next (the digest-line prefix,
the hasher, the subscribers routed to its category).  Multi-key records
use :meth:`Trace.record`, a keyword adapter over the same ``emit``.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator


class TraceRecord:
    """One traced occurrence at simulated time ``time``.

    A plain ``__slots__`` class rather than a dataclass: records are
    allocated on every traced event of every simulated run, so their
    construction cost is a measurable slice of fuzz throughput.  Treat
    instances as immutable.
    """

    __slots__ = ("time", "category", "actor", "detail")

    def __init__(
        self,
        time: float,
        category: str,
        actor: str,
        detail: dict[str, Any] | None = None,
    ) -> None:
        self.time = time
        self.category = category
        self.actor = actor
        self.detail = {} if detail is None else detail

    def __repr__(self) -> str:  # compact, log-friendly
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.6f}] {self.category:<14} {self.actor:<12} {extra}"


def _digest_line(time: float, category: str, actor: str, detail: dict[str, Any]) -> bytes:
    """The canonical per-record hash input.

    ``repr`` of floats is exact, and detail dicts are canonicalized by
    key, so digests are stable across processes (unlike ``hash()``).
    """
    return f"{time!r}|{category}|{actor}|{sorted(detail.items())!r}\n".encode()


#: Digest schema versions.  Schema 1 is the historical contract: every
#: record hashes and two runs of the same scenario must agree bit for
#: bit.  Schema 2 (``hetpipe-trace/2``) is the fast-forward contract:
#: only *semantic* records — minibatch/wave lifecycle plus the
#: ``fast_forward`` macro summaries that stand in for coalesced raw
#: records — fold into the hash, so a coalesced run stays replayable
#: (same scenario, same fidelity => same digest) without pretending to
#: be event-for-event identical to a full run.
TRACE_SCHEMAS = (1, 2)

#: The schema-2 tag seeding the hash, so v1 and v2 digests of the same
#: stream can never collide silently.
SCHEMA_2_TAG = b"hetpipe-trace/2\n"

#: Record categories hashed under schema 2: per-minibatch lifecycle,
#: WSP synchronization, and fast-forward cycle summaries.
SEMANTIC_CATEGORIES = frozenset(
    ("inject", "minibatch_done", "wave_push", "pull_done", "fast_forward")
)


class TraceSite:
    """One emission point of one :class:`Trace`: a (category, actor, key).

    Build sites through :meth:`Trace.site`.  A keyed site's records carry
    the single detail pair ``{key: value}``; a site with ``key=None``
    takes the whole detail dict as its value.  ``hasher`` is the trace's
    hasher when this category is hashed (else ``None``), and ``prefix``
    the part of the record's digest line between the timestamp and the
    value (empty when unhashed).  ``observers`` is the trace's live
    subscriber list for the category: later :meth:`Trace.subscribe`
    calls extend it in place, so a site never goes stale.
    """

    __slots__ = ("category", "actor", "key", "prefix", "hasher", "observers")

    def __init__(
        self,
        category: str,
        actor: str,
        key: str | None,
        hasher: Any,
        observers: list[Callable[[TraceRecord], None]],
    ) -> None:
        self.category = category
        self.actor = actor
        self.key = key
        # _digest_line renders one pair as "[('key', value)]": everything
        # up to the value is fixed per site.
        if hasher is None:
            self.prefix = ""
        elif key is None:
            self.prefix = f"|{category}|{actor}|"
        else:
            self.prefix = f"|{category}|{actor}|[({key!r}, "
        self.hasher = hasher
        self.observers = observers


class Trace:
    """Append-only record store with simple filtered views.

    **One record path.**  Every record passes through :meth:`emit`
    exactly once, as ``emit(time, site, value)`` with a prebuilt
    :class:`TraceSite`; :meth:`record` is the keyword adapter for
    multi-key records and one-off callers.  The emit builds no kwargs
    dict and does no lookup, and it allocates a :class:`TraceRecord`
    only when storage is on or a subscriber is routed to the category.

    Recording can be disabled (``enabled=False``) for large benchmark runs
    where only aggregate counters matter.

    **Category routing.**  Observers registered through :meth:`subscribe`
    see each record as it is emitted, even with storage disabled — the
    invariant oracles use this to check runs too long to keep in memory.
    An observer subscribed with ``categories`` sees only records of
    those categories; one subscribed without sees them all.  Within a
    category, observers run in subscription order.

    ``digest=True`` additionally folds every record into a running
    content hash *at emit time*.  Combined with ``enabled=False`` this is
    the fuzz harness's streaming mode: bit-identical replay digests with
    O(1) memory, instead of retaining every :class:`TraceRecord` for the
    whole run.  The streaming hash is computed record-by-record with the
    exact scheme :meth:`digest` uses over stored records, so the two
    modes produce identical digests for identical runs.  Records of one
    simulated instant share the engine's clock float, so the hasher
    renders ``repr(time)`` once and reuses it while the timestamp is the
    *same object* — identity, not equality, since ``0.0 == -0.0`` while
    their reprs differ.
    """

    def __init__(self, enabled: bool = True, digest: bool = False, schema: int = 1) -> None:
        if schema not in TRACE_SCHEMAS:
            raise ValueError(f"unknown trace schema {schema!r}; expected one of {TRACE_SCHEMAS}")
        self.enabled = enabled
        self.schema = schema
        self.records: list[TraceRecord] = []
        self._hasher = hashlib.sha256() if digest else None
        if self._hasher is not None and schema == 2:
            self._hasher.update(SCHEMA_2_TAG)
        #: schema 1 hashes every record; schema 2 only the semantic ones
        self._digest_all = schema == 1
        #: observers of every category, in subscription order
        self._unrouted: list[Callable[[TraceRecord], None]] = []
        #: category -> its observers, starting from the unrouted ones;
        #: sites hold these lists by reference
        self._routes: defaultdict[str, list[Callable[[TraceRecord], None]]] = defaultdict(
            self._unrouted.copy
        )
        #: the last hashed timestamp object and its repr
        self._time: float | None = None
        self._time_repr = ""

    def subscribe(
        self,
        observer: Callable[[TraceRecord], None],
        categories: Iterable[str] | None = None,
    ) -> None:
        """Call ``observer`` with each record of ``categories`` (default:
        every category) at emit time."""
        if categories is None:
            self._unrouted.append(observer)
            for observers in self._routes.values():
                observers.append(observer)
            return
        for category in set(categories):
            self._routes[category].append(observer)

    def site(self, category: str, actor: str, key: str | None = None) -> TraceSite:
        """The emission point for ``category`` records of ``actor``."""
        hashed = self._digest_all or category in SEMANTIC_CATEGORIES
        return TraceSite(
            category, actor, key, self._hasher if hashed else None, self._routes[category]
        )

    def emit(self, time: float, site: TraceSite, value: Any) -> None:
        """Record ``site``'s occurrence at ``time``.

        ``value`` is the detail value of a keyed site, or the whole
        detail dict of a ``key=None`` site.
        """
        hasher = site.hasher
        if hasher is not None:
            if time is not self._time:
                self._time = time
                self._time_repr = repr(time)
            if site.key is None:
                hasher.update(f"{self._time_repr}{site.prefix}{sorted(value.items())!r}\n".encode())
            else:
                hasher.update(f"{self._time_repr}{site.prefix}{value!r})]\n".encode())
        observers = site.observers
        if observers or self.enabled:
            key = site.key
            record = TraceRecord(
                time, site.category, site.actor, value if key is None else {key: value}
            )
            if self.enabled:
                self.records.append(record)
            for observer in observers:
                observer(record)

    def record(self, time: float, category: str, actor: str, **detail: Any) -> None:
        """Keyword form of :meth:`emit`: any number of detail pairs."""
        self.emit(time, self.site(category, actor), detail)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(self, category: str | None = None, actor: str | None = None) -> list[TraceRecord]:
        """Records matching the given category and/or actor."""
        out = self.records
        if category is not None:
            out = [r for r in out if r.category == category]
        if actor is not None:
            out = [r for r in out if r.actor == actor]
        return out

    def categories(self) -> set[str]:
        return {r.category for r in self.records}

    def last(self, category: str) -> TraceRecord | None:
        """Most recent record of ``category``, or None."""
        for record in reversed(self.records):
            if record.category == category:
                return record
        return None

    def count(self, category: str, actor: str | None = None) -> int:
        """Number of stored records matching ``category`` (and ``actor``)."""
        return len(self.filter(category=category, actor=actor))

    def digest(self) -> str:
        """Content hash of the emitted records.

        Two runs of the same scenario must produce the same digest — this
        is the bit-identical-replay check the fuzz harness relies on.
        With ``digest=True`` the hash was folded in at emit time (O(1)
        memory); otherwise it is computed here from the stored records.
        Both paths hash the same canonical per-record line, so a
        streaming trace and a storing trace of the same run agree.
        """
        if self._hasher is not None:
            return self._hasher.hexdigest()
        h = hashlib.sha256()
        if self.schema == 2:
            h.update(SCHEMA_2_TAG)
        for r in self.records:
            if self._digest_all or r.category in SEMANTIC_CATEGORIES:
                h.update(_digest_line(r.time, r.category, r.actor, r.detail))
        return h.hexdigest()
