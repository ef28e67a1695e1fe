"""Span tracing from outside the program, and the per-layer metrics.

:func:`install` wraps the public functions of each layer module (and, where a
name was imported into a caller's namespace, that use site) so every call
records a span: name, start, end, thread and parent.  Spans stay in memory
and are written as one JSON file when the run ends.  Parents cross thread
pools: work submitted to a ``ThreadPoolExecutor`` runs inside a
``pool.task`` span whose parent is the span that submitted it.

Only the traced run installs the wrappers; the end-to-end metrics come from
an untraced run.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# Span record layout (a list, for cheap appends from hot paths).
SID, NAME, START, END, THREAD, PARENT, ATTRS = range(7)


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.submitted_at: Dict[int, float] = {}
        self.queue_waits: List[float] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1][SID] if stack else None

    def begin(self, name: str, parent: Optional[int] = None, attrs=None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][SID]
        record = [next(self._ids), name, time.perf_counter(), None,
                  threading.get_ident(), parent, attrs]
        self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:
            stack.remove(record)

    @contextmanager
    def span(self, name: str, **attrs):
        record = self.begin(name, attrs=attrs or None)
        try:
            yield record
        finally:
            self.end(record)

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``note(args, kwargs)`` may return
        a dict of attributes, or a callable finishing them after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = note(args, kwargs) if note is not None else None
            after = None
            if callable(attrs):
                after, attrs = attrs, {}
            record = tracer.begin(name, attrs=attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(record)
                if after is not None:
                    after(record)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON document, one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "name", "start", "end", "thread", "parent", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"spans": [\n')
            for index, record in enumerate(self.spans):
                if index:
                    handle.write(",\n")
                handle.write(json.dumps(dict(zip(keys, record))))
            handle.write("\n]}\n")


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def _note_submit(tracer: Tracer):
    def note(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        tracer.submitted_at[id(request)] = time.perf_counter()
        return None

    return note


def _note_bucket(tracer: Tracer):
    def note(args, kwargs):
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        now = time.perf_counter()
        for request in requests:
            submitted = tracer.submitted_at.pop(id(request), None)
            if submitted is not None:
                tracer.queue_waits.append(now - submitted)
        return {"n": len(requests)}

    return note


def _note_batch(args, kwargs):
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    return {"n": len(queries)}


def _note_wal(args, kwargs):
    wal = args[0]
    blob = args[2] if len(args) > 2 else kwargs.get("blob", b"")
    before = os.path.getsize(wal.path)

    def after(record):
        record[ATTRS] = {"user": len(blob), "bytes": os.path.getsize(wal.path) - before}

    return after


# (module, attribute path, span name, note factory or None).  Functions that
# a module imported by name are wrapped in that module's namespace.
TARGETS = (
    ("repro.service.query_service", "QueryService.submit_request", "query_service.submit", "submit"),
    ("repro.service.query_service", "execute_plan", "query_service.execute_plan", "bucket"),
    ("repro.service.sharded", "execute_plan", "sharded.execute_plan", None),
    ("repro.core.database", "execute_plan", "database.execute_plan", None),
    ("repro.core.aknn", "AKNNSearcher.search", "aknn.search", None),
    ("repro.core.executor", "BatchQueryExecutor.aknn_batch", "executor.aknn_batch", "batch"),
    ("repro.core.range_search", "AlphaRangeSearcher.search", "range_search.search", None),
    ("repro.core.range_search", "AlphaRangeSearcher.collect", "range_search.collect", None),
    ("repro.core.rknn", "RKNNSearcher.search", "rknn.search", None),
    ("repro.core.reverse_nn", "ReverseAKNNSearcher.search_batch", "reverse_nn.search_batch", None),
    ("repro.service.sharded", "certainly_closer_counts", "soa.certainly_closer_counts", None),
    ("repro.index.rtree", "RTree.leaf_alpha_bounds", "rtree.leaf_alpha_bounds", None),
    ("repro.fuzzy.alpha_distance", "closest_pair_distance", "distance.closest_pair", None),
    ("repro.fuzzy.operations", "closest_pair_distance", "distance.closest_pair", None),
    ("repro.storage.object_store", "ObjectStore.get", "object_store.get", None),
    ("repro.storage.object_store", "decode_object", "serialization.decode", None),
    ("repro.core.database", "decode_object", "serialization.decode", None),
    ("repro.core.database", "build_summary", "summary.build", None),
    ("repro.core.database", "bulk_load_tree", "bulk.load", None),
    ("repro.index.bulk", "bulk_load_tree", "bulk.load", None),
    ("repro.index.bulk", "CompactionManager.maybe_compact", "bulk.maybe_compact", None),
    ("repro.index.rtree", "RTree.insert", "rtree.insert", None),
    ("repro.index.rtree", "RTree.delete", "rtree.delete", None),
    ("repro.index.rtree", "RTree.delete_lazy", "rtree.delete", None),
    ("repro.index.rtree", "RTree.adopt", "rtree.adopt", None),
    ("repro.storage.wal", "WriteAheadLog.append_insert", "wal.append", "wal"),
    ("repro.storage.wal", "WriteAheadLog.append_delete", "wal.append", "wal"),
    ("repro.storage.wal", "WriteAheadLog.truncate", "wal.truncate", None),
    ("repro.storage.snapshot", "SnapshotManager.snapshot", "snapshot", None),
    ("repro.service.subscriptions", "SubscriptionEngine.notify_insert", "subscriptions.notify", None),
    ("repro.service.subscriptions", "SubscriptionEngine.notify_delete", "subscriptions.notify", None),
    ("repro.core.database", "FuzzyDatabase.insert", "database.insert", None),
    ("repro.core.database", "FuzzyDatabase.delete", "database.delete", None),
    ("repro.core.database", "FuzzyDatabase.enable_durability", "database.enable_durability", None),
    ("repro.core.database", "FuzzyDatabase.recover", "database.recover", None),
    ("repro.service.sharded", "ShardedDatabase.insert", "sharded.insert", None),
    ("repro.service.sharded", "ShardedDatabase.delete", "sharded.delete", None),
    ("repro.service.sharded", "ShardedDatabase.recover", "sharded.recover", None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every wrapper; returns a function that removes them."""
    notes = {
        "submit": _note_submit(tracer),
        "bucket": _note_bucket(tracer),
        "batch": _note_batch,
        "wal": _note_wal,
    }
    undo = []
    for module_name, path, span_name, note in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, span_name, notes.get(note)))
        else:
            wrapped = tracer.wrap(raw, span_name, notes.get(note))
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))

    pool_submit = concurrent.futures.ThreadPoolExecutor.submit

    def submit(pool, fn, /, *args, **kwargs):
        parent = tracer.current()

        def task():
            record = tracer.begin("pool.task", parent=parent)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(record)

        return pool_submit(pool, task)

    concurrent.futures.ThreadPoolExecutor.submit = submit
    undo.append((concurrent.futures.ThreadPoolExecutor, "submit", pool_submit))

    def remove() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return remove


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("query_service.queue_wait_ms", "ms", "lower"),
    ("query_service.requests_per_bucket", "count", "higher"),
    ("query_service.execute_s", "s", "lower"),
    ("sharded.self_ms", "ms", "lower"),
    ("sharded.parallelism", "ratio", "higher"),
    ("sharded.write_wait_ms", "ms", "lower"),
    ("sharded.retries", "count", "lower"),
    ("subscriptions.notify_ms", "ms", "lower"),
    ("subscriptions.screened_out_share", "ratio", "higher"),
    ("subscriptions.requeries", "count", "lower"),
    ("requests.requests_per_group", "ratio", "higher"),
    ("executor.aknn_batch_ms_per_query", "ms", "lower"),
    ("aknn.search_ms", "ms", "lower"),
    ("range_search.search_ms", "ms", "lower"),
    ("range_search.exact_per_match", "ratio", "lower"),
    ("rknn.search_ms", "ms", "lower"),
    ("rknn.profile_hit_share", "ratio", "higher"),
    ("reverse_nn.search_batch_ms", "ms", "lower"),
    ("reverse_nn.candidates_per_query", "count", "lower"),
    ("reverse_nn.member_share", "ratio", "higher"),
    ("distance.closest_pair_calls_per_query", "count", "lower"),
    ("distance.closest_pair_us", "us", "lower"),
    ("rtree.node_accesses_per_query", "count", "lower"),
    ("rtree.insert_ms", "ms", "lower"),
    ("rtree.delete_ms", "ms", "lower"),
    ("bulk.load_s", "s", "lower"),
    ("bulk.compactions", "count", "lower"),
    ("bulk.compaction_ms", "ms", "lower"),
    ("summary.build_us", "us", "lower"),
    ("object_store.hit_share", "ratio", "higher"),
    ("object_store.get_us", "us", "lower"),
    ("serialization.decodes_per_query", "count", "lower"),
    ("serialization.decode_us", "us", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("snapshot.count", "count", "lower"),
    ("snapshot.ms", "ms", "lower"),
    ("recover.replayed_records", "count", "lower"),
    ("recover.replay_ms", "ms", "lower"),
)

# Work a sharded bucket hands to each shard: the core searchers, plus the
# reverse box gather and candidate-filter kernel it runs per shard.
SHARD_WORK = frozenset({
    "aknn.search", "executor.aknn_batch", "range_search.search",
    "range_search.collect", "rknn.search", "reverse_nn.search_batch",
    "rtree.leaf_alpha_bounds", "soa.certainly_closer_counts",
})
READ_ROOTS = frozenset({"op.read", "query_service.execute_plan"})


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _med(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _union_length(intervals: Sequence[tuple]) -> float:
    total, end = 0.0, float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


class SpanIndex:
    """Lookups over a finished span list."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = [s for s in spans if s[END] is not None]
        self.by_id = {s[SID]: s for s in self.spans}
        self.by_name: Dict[str, List[list]] = {}
        for s in self.spans:
            self.by_name.setdefault(s[NAME], []).append(s)
        rounds = sorted((s[START], s[END]) for s in self.by_name.get("round", ()))
        self._rounds = rounds

    def named(self, *names: str, in_rounds: bool = False) -> List[list]:
        out = [s for n in names for s in self.by_name.get(n, ())]
        if in_rounds:
            out = [s for s in out if self.in_rounds(s)]
        return out

    def in_rounds(self, span: list) -> bool:
        t = span[START]
        return any(start <= t <= end for start, end in self._rounds)

    def ancestors(self, span: list):
        parent = span[PARENT]
        while parent is not None:
            node = self.by_id.get(parent)
            if node is None:
                return
            yield node
            parent = node[PARENT]

    def has_ancestor(self, span: list, names) -> bool:
        return any(a[NAME] in names for a in self.ancestors(span))

    def descendants_of(self, roots: List[list], names) -> Dict[int, List[list]]:
        """``{root id: [descendant spans named in names]}``."""
        wanted = {r[SID] for r in roots}
        out: Dict[int, List[list]] = {sid: [] for sid in wanted}
        for name in names:
            for span in self.by_name.get(name, ()):
                for a in self.ancestors(span):
                    if a[SID] in wanted:
                        out[a[SID]].append(span)
                        break
        return out


def _duration(span: list) -> float:
    return span[END] - span[START]


def layer_metrics(spans: List[list], tracer: Tracer, ctx: Dict) -> Dict[str, float]:
    """Derive every per-layer metric; layers idle on a workload read 0.

    ``ctx`` carries the load generator's figures: ``reads``, ``writes``,
    ``rounds``, ``factor`` (median drift correction, applied to times),
    counter deltas over the timed rounds and aggregates of result stats.
    """
    idx = SpanIndex(spans)
    f = ctx["factor"]
    reads = ctx["reads"]
    per_k_writes = 1000.0 / ctx["writes"] if ctx["writes"] else 0.0
    out: Dict[str, float] = {}

    buckets = idx.named("query_service.execute_plan", in_rounds=True)
    out["query_service.queue_wait_ms"] = _med(tracer.queue_waits) * 1e3 * f
    out["query_service.requests_per_bucket"] = _ratio(
        sum(b[ATTRS]["n"] for b in buckets), len(buckets))
    out["query_service.execute_s"] = _ratio(sum(map(_duration, buckets)), ctx["rounds"]) * f

    # Shard work of a bucket: its outermost SHARD_WORK spans, on whichever
    # thread they ran (the bucket's own with one shard, pool threads with
    # several).  The rest of the bucket is the sharded layer's own time.
    shard_work = idx.descendants_of(buckets, SHARD_WORK)
    selfs, busy, wall = [], 0.0, 0.0
    for b in buckets:
        outermost = [(s[START], s[END]) for s in shard_work[b[SID]]
                     if not idx.has_ancestor(s, SHARD_WORK)]
        selfs.append(_duration(b) - _union_length(outermost))
        busy += sum(end - start for start, end in outermost)
        wall += _duration(b)
    out["sharded.self_ms"] = _med(selfs) * 1e3 * f
    out["sharded.parallelism"] = _ratio(busy, wall)
    writes = idx.named("sharded.insert", "sharded.delete", in_rounds=True)
    inner = idx.descendants_of(
        writes, ("database.insert", "database.delete", "subscriptions.notify"))
    out["sharded.write_wait_ms"] = _med(
        _duration(w) - sum(map(_duration, inner[w[SID]])) for w in writes) * 1e3 * f
    counters = ctx["counters"]
    out["sharded.retries"] = float(counters.get("retries", 0))

    out["subscriptions.notify_ms"] = _med(
        map(_duration, idx.named("subscriptions.notify", in_rounds=True))) * 1e3 * f
    screened = counters.get("sub_screened_out", 0)
    out["subscriptions.screened_out_share"] = _ratio(
        screened, screened + counters.get("sub_evaluations", 0))
    out["subscriptions.requeries"] = counters.get("sub_requeries", 0) * per_k_writes

    out["requests.requests_per_group"] = _ratio(
        counters.get("plan_requests", 0), counters.get("plan_groups", 0))
    nested = ("rknn.search", "reverse_nn.search_batch")
    batches = [s for s in idx.named("executor.aknn_batch", in_rounds=True)
               if not idx.has_ancestor(s, nested)]
    out["executor.aknn_batch_ms_per_query"] = _ratio(
        sum(map(_duration, batches)), sum(s[ATTRS]["n"] for s in batches)) * 1e3 * f
    out["aknn.search_ms"] = _med(
        _duration(s) for s in idx.named("aknn.search", in_rounds=True)
        if not idx.has_ancestor(s, nested)) * 1e3 * f
    out["range_search.search_ms"] = _med(
        map(_duration, idx.named("range_search.search", in_rounds=True))) * 1e3 * f
    stats = ctx["results"]
    out["range_search.exact_per_match"] = _ratio(
        stats.get("range_evaluations", 0), stats.get("range_matches", 0))
    out["rknn.search_ms"] = _med(
        map(_duration, idx.named("rknn.search", in_rounds=True))) * 1e3 * f
    hits, misses = counters.get("profile_hits", 0), counters.get("profile_misses", 0)
    out["rknn.profile_hit_share"] = _ratio(hits, hits + misses)
    out["reverse_nn.search_batch_ms"] = _med(
        map(_duration, idx.named("reverse_nn.search_batch", in_rounds=True))) * 1e3 * f
    out["reverse_nn.candidates_per_query"] = _ratio(
        stats.get("reverse_candidates", 0), stats.get("reverse_queries", 0))
    out["reverse_nn.member_share"] = _ratio(
        stats.get("reverse_members", 0), stats.get("reverse_candidates", 0))

    def per_read(name: str, under: Optional[str] = None) -> float:
        count = 0
        for s in idx.named(name, in_rounds=True):
            chain = [a[NAME] for a in idx.ancestors(s)]
            if (under is None or under in chain) and READ_ROOTS.intersection(chain):
                count += 1
        return _ratio(count, reads)

    out["distance.closest_pair_calls_per_query"] = per_read("distance.closest_pair")
    out["distance.closest_pair_us"] = _med(
        map(_duration, idx.named("distance.closest_pair", in_rounds=True))) * 1e6 * f
    out["rtree.node_accesses_per_query"] = _ratio(stats.get("node_accesses", 0), reads)
    out["rtree.insert_ms"] = _med(
        map(_duration, idx.named("rtree.insert", in_rounds=True))) * 1e3 * f
    out["rtree.delete_ms"] = _med(
        map(_duration, idx.named("rtree.delete", in_rounds=True))) * 1e3 * f
    out["bulk.load_s"] = _med(map(_duration, idx.named("bulk.load"))) * f
    compactions = [s for s in idx.named("bulk.maybe_compact", in_rounds=True)
                   if idx.descendants_of([s], ("bulk.load",))[s[SID]]]
    out["bulk.compactions"] = len(compactions) * per_k_writes
    out["bulk.compaction_ms"] = _med(map(_duration, compactions)) * 1e3 * f
    out["summary.build_us"] = _med(map(_duration, idx.named("summary.build"))) * 1e6 * f
    gets = idx.named("object_store.get", in_rounds=True)
    decodes_in_gets = [s for s in idx.named("serialization.decode", in_rounds=True)
                       if idx.has_ancestor(s, ("object_store.get",))]
    out["object_store.hit_share"] = 1.0 - _ratio(len(decodes_in_gets), len(gets)) if gets else 0.0
    out["object_store.get_us"] = _med(map(_duration, gets)) * 1e6 * f
    out["serialization.decodes_per_query"] = per_read("serialization.decode", "object_store.get")
    out["serialization.decode_us"] = _med(
        map(_duration, idx.named("serialization.decode", in_rounds=True))) * 1e6 * f
    appends = idx.named("wal.append", in_rounds=True)
    out["wal.append_us"] = _med(map(_duration, appends)) * 1e6 * f
    out["wal.bytes_per_user_byte"] = _ratio(
        sum(s[ATTRS]["bytes"] for s in appends), sum(s[ATTRS]["user"] for s in appends))
    snapshots = idx.named("snapshot", in_rounds=True)
    out["snapshot.count"] = len(snapshots) * per_k_writes
    out["snapshot.ms"] = max(map(_duration, snapshots), default=0.0) * 1e3 * f
    out["recover.replayed_records"] = _med(ctx.get("replayed", []))
    recoveries = idx.named("database.recover")
    parts = idx.descendants_of(recoveries, ("bulk.load", "database.enable_durability"))
    out["recover.replay_ms"] = _med(
        _duration(r) - sum(map(_duration, parts[r[SID]])) for r in recoveries) * 1e3 * f
    return out


def span_summary(spans: List[list]) -> List[tuple]:
    """``(name, calls, total s, self s)`` per span name, by self time."""
    idx = SpanIndex(spans)
    children: Dict[int, List[tuple]] = {}
    for s in idx.spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    rows: Dict[str, list] = {}
    for s in idx.spans:
        d = _duration(s)
        own = d - _union_length(
            [(max(a, s[START]), min(b, s[END])) for a, b in children.get(s[SID], ())
             if b > s[START] and a < s[END]])
        row = rows.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += d
        row[2] += own
    return sorted(((n, c, t, o) for n, (c, t, o) in rows.items()), key=lambda r: -r[3])
