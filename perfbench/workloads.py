"""The workloads: library_hot and service_cold.

Each workload builds its system from generated objects, runs whole rounds of
a fixed operation mix until ``seconds`` of rounds have passed, checks a
fixed sample of answers with the brute-force oracle outside the timed
regions, and ends in a crash (no ``close``, no final snapshot) plus several
timed recoveries of copies of the crashed directory.
"""

from __future__ import annotations

import math
import shutil
import time
from concurrent.futures import FIRST_COMPLETED, wait
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from perfbench.common import (
    N_OBJECTS,
    POINTS_PER_OBJECT,
    RoundLog,
    RunLog,
    make_objects,
    seeded_rng,
)
from perfbench.oracle import (
    EPS,
    Oracle,
    check_answer,
    check_coverage,
    check_knn,
    check_range,
    fold_deltas,
    query_cut,
)

SETUP_REPS = 3
RECOVER_REPS = 5
MIN_ROUNDS = 3


def is_delete(index: int, deletes_per_5: int) -> bool:
    """Whether write ``index`` of a round deletes (``deletes_per_5`` of every
    5 writes) or inserts.  Write latency has a cheap mode (deletes, inserts
    that split no node) and an expensive one (node splits, compactions,
    snapshots); the mix keeps the median well inside the cheap mode, where
    the share of expensive writes barely moves it, instead of on the edge
    between the modes, where it jumps from run to run."""
    return index % 5 in (1, 2, 4, 3)[:deletes_per_5]


class Bench:
    """State shared by one run of any workload."""

    def __init__(self, seed: int, seconds: float, workdir: Path, tracer) -> None:
        from repro import AknnRequest, RangeRequest, ReverseRequest, SweepRequest

        self.req = {"aknn": AknnRequest, "range": RangeRequest,
                    "sweep": SweepRequest, "reverse": ReverseRequest}
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = workdir
        self.tracer = tracer
        self.log = RunLog()
        self.errors: List[str] = []
        self.check_rng = seeded_rng(seed, 9)
        self.delete_rng = seeded_rng(seed, 3)
        self.objects = make_objects(seeded_rng(seed, 0), N_OBJECTS, first_id=0)
        self.oracle = Oracle(POINTS_PER_OBJECT)
        for obj in self.objects:
            self.oracle.add(obj.object_id, obj.points, obj.memberships)
        self.results: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.replayed: List[int] = []
        self.timeline: Dict[str, float] = {}
        self._mark = time.perf_counter()

    # -- inputs --------------------------------------------------------
    def pool(self, stream: int, count: int, around=None) -> List:
        """``count`` fresh query/insert objects from seed stream ``stream``
        (centred within +-1 of ``around`` when given)."""
        return make_objects(seeded_rng(self.seed, stream), count, first_id=None,
                            around=around)

    def max_rounds(self, min_round_s: float) -> int:
        """Rounds the pre-generated inputs cover: the run stops there even
        if ``seconds`` have not passed (a machine >= 4x faster than ours)."""
        return max(MIN_ROUNDS, math.ceil(self.seconds / min_round_s) + 1)

    def per_round(self, aknn_latencies: int, writes: int) -> None:
        """Declare the latency samples one round yields (fixes the tails)."""
        self.log.guaranteed["aknn_lat"] = MIN_ROUNDS * aknn_latencies
        self.log.guaranteed["write_lat"] = MIN_ROUNDS * writes

    def mark(self, phase: str) -> None:
        """Add the wall time since the last mark to the run's timeline."""
        now = time.perf_counter()
        self.timeline[phase] = self.timeline.get(phase, 0.0) + now - self._mark
        self._mark = now

    # -- tracing -------------------------------------------------------
    def phase(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer is not None else nullcontext()

    # -- checks --------------------------------------------------------
    def check(self, request, result, ids: np.ndarray) -> None:
        for error in check_answer(self.oracle, request, result, ids, self.check_rng):
            self.errors.append(f"{type(request).__name__}: {error}")

    def note_result(self, family: str, result) -> None:
        """Aggregate the result stats the engines expose (per-layer inputs)."""
        stats = result.stats
        r = self.results
        r["node_accesses"] = r.get("node_accesses", 0) + stats.node_accesses
        if family == "range":
            r["range_matches"] = r.get("range_matches", 0) + len(result)
            r["range_evaluations"] = r.get("range_evaluations", 0) + stats.distance_evaluations
        elif family == "reverse":
            r["reverse_queries"] = r.get("reverse_queries", 0) + 1
            r["reverse_members"] = r.get("reverse_members", 0) + len(result)
            r["reverse_candidates"] = (
                r.get("reverse_candidates", 0) + stats.extra.get("candidates", 0.0))

    # -- set-up, rounds, recovery ---------------------------------------
    def timed_setup(self, build: Callable[[int], object], discard: Callable[[object], None]):
        """Set up SETUP_REPS times (each bracketed by the reference loop);
        keep the last system, discard the others."""
        system = None
        for rep in range(SETUP_REPS):
            if system is not None:
                discard(system)
            with self.phase("setup"):
                system = self.log.one_shot("setup", lambda: build(rep))
        self.mark("setup")
        return system

    def run_rounds(self, one_round: Callable[[RoundLog], List], min_round_s: float) -> None:
        """Whole rounds until ``seconds`` of rounds have passed (at least
        MIN_ROUNDS).  ``one_round`` returns its sampled ``(request, result,
        live ids)`` triples; they are checked after the round, outside every
        timed region."""
        limit = self.max_rounds(min_round_s)
        measured = 0.0
        while self.log.rounds < limit and (
            self.log.rounds < MIN_ROUNDS or measured < self.seconds
        ):
            log = RoundLog()
            start = time.perf_counter()
            with self.phase("round"):
                samples = one_round(log)
            measured += time.perf_counter() - start
            self.log.close_round(log)
            self.mark("rounds")
            for request, result, ids in samples:
                self.check(request, result, ids)
            self.mark("checks")
        if self.log.rounds == limit and measured < self.seconds:
            print(f"note: stopped at the {limit}-round input budget before "
                  f"{self.seconds:g} s", flush=True)

    def timed_recoveries(self, crashed: Path, recover: Callable[[Path], object],
                         query: Dict, close: Callable[[object], None]) -> None:
        """Recover RECOVER_REPS copies of the crashed directory, timing each;
        each recovered engine must hold exactly the acknowledged ids and
        answer one query exactly."""
        extra = self.pool(40, RECOVER_REPS)
        for rep in range(RECOVER_REPS):
            copy = self.workdir / f"recover-{rep}"
            shutil.copytree(crashed, copy)
            self.log.attempted += 2
            try:
                with self.phase("recover"):
                    engine = self.log.one_shot("recover", lambda: recover(copy))
            except Exception as error:  # a failed recovery is a failed operation
                self.log.fail("exception", 2)
                self.errors.append(f"recovery failed: {error!r}")
                continue
            self.replayed.append(engine.metrics.get("wal_replayed"))
            ids = self.oracle.live_ids()
            recovered = np.asarray(sorted(engine.object_ids()), dtype=np.int64)
            if not np.array_equal(recovered, ids):
                lost = len(set(recovered.tolist()) ^ set(ids.tolist()))
                self.errors.append(f"recovered {len(recovered)} ids, the ledger holds "
                                   f"{len(ids)} ({lost} differ)")
            request = self.req["aknn"](extra[rep], **query)
            self.check(request, engine.execute(request), ids)
            close(engine)
        self.mark("recovery")

    # -- writes ----------------------------------------------------------
    def write(self, engine, obj=None, victims=None) -> float:
        """Insert ``obj``, or else delete one of ``victims`` (any live id
        when none is given), drawn with the delete stream; returns the time
        until the write is acknowledged.  The oracle ledger follows
        acknowledged writes only."""
        self.log.attempted += 1
        if obj is not None:
            start = time.perf_counter()
            object_id = engine.insert(obj)
            elapsed = time.perf_counter() - start
            self.oracle.add(object_id, obj.points, obj.memberships)
        else:
            if victims is None or not len(victims):
                victims = self.oracle.live_ids()
            victim = int(victims[self.delete_rng.integers(len(victims))])
            start = time.perf_counter()
            engine.delete(victim)
            elapsed = time.perf_counter() - start
            self.oracle.remove(victim)
        return elapsed

    def members(self, request) -> np.ndarray:
        """The oracle's current answer to an AKNN or range request: its k
        nearest live ids, or the live ids safely inside its radius."""
        ids = self.oracle.live_ids()
        dist = self.oracle.distances(query_cut(request.query, request.alpha), request.alpha, ids)
        if type(request).__name__ == "AknnRequest":
            return ids[np.argsort(dist, kind="stable")[: request.k]]
        return ids[dist <= request.radius - EPS]

    def check_subscription(self, request, deltas) -> None:
        """The folded delta stream equals the oracle's answer now."""
        members, errors = fold_deltas(deltas)
        self.errors.extend(f"subscription: {e}" for e in errors)
        ids = self.oracle.live_ids()
        dist = self.oracle.distances(query_cut(request.query, request.alpha), request.alpha, ids)
        if type(request).__name__ == "AknnRequest":
            found = check_knn(list(members), request.k, ids, dist)
        else:
            found = check_range(list(members), request.radius, ids, dist)
        self.errors.extend(f"subscription {type(request).__name__}: {e}" for e in found)

    def counter_delta(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        for key, value in after.items():
            self.counters[key] = self.counters.get(key, 0) + value - before.get(key, 0)


def _counters(db) -> Dict[str, int]:
    """A FuzzyDatabase's public counters plus its distance-profile memo."""
    out = dict(db.metrics.as_dict())
    out["profile_hits"] = db.profile_store.hits
    out["profile_misses"] = db.profile_store.misses
    return out


def _close_files(db) -> None:
    """Release a FuzzyDatabase's files without the final snapshot ``close``
    would take (the directory is left as a crash leaves it)."""
    if db.wal is not None:
        db.wal.close()
    db.store.close()


def _inserts_needed(writes: int, deletes_per_5: int, rounds: int) -> int:
    return sum(not is_delete(i, deletes_per_5) for i in range(writes)) * rounds


# ---------------------------------------------------------------------------
# library_hot
# ---------------------------------------------------------------------------
LIBRARY = {
    # shared-bucket batches per family per round (the family rates)
    "batches": {"aknn": (12, 64), "range": (8, 24), "sweep": (3, 8), "reverse": (1, 2)},
    # single execute calls per round (the latencies)
    "single": {"aknn": 192, "range": 96, "sweep": 8, "reverse": 1},
    # 48 of 1,331 operations: a light durable write burst (< 5 %)
    "writes": 48,
    "deletes_per_5": 3,
    "params": {
        "aknn": {"k": 10, "alpha": 0.5},
        "range": {"alpha": 0.5, "radius": 3.0},
        "sweep": {"k": 5, "alpha_range": (0.3, 0.7)},
        "reverse": {"k": 5, "alpha": 0.5},
    },
    # holds every object the run can store
    "cache_capacity": 16_384,
    "min_round_s": 2.0,
}


def library_hot(bench: Bench) -> None:
    from repro import FuzzyDatabase, RuntimeConfig

    spec = LIBRARY
    params = spec["params"]
    config = RuntimeConfig(cache_capacity=spec["cache_capacity"])
    rounds = bench.max_rounds(spec["min_round_s"])
    per_round = {f: n * size + spec["single"][f]
                 for f, (n, size) in spec["batches"].items()}
    pools = {f: bench.pool(10 + i, per_round[f] * rounds) for i, f in enumerate(params)}
    warm = bench.pool(20, 4 * SETUP_REPS)
    inserts = bench.pool(30, _inserts_needed(spec["writes"], spec["deletes_per_5"], rounds))
    bench.per_round(spec["single"]["aknn"], spec["writes"])
    bench.mark("inputs")

    def build(rep: int):
        db = FuzzyDatabase.build(bench.objects, config=config)
        db.enable_durability(bench.workdir / f"library-{rep}")
        for i, family in enumerate(params):
            db.execute(bench.req[family](warm[4 * rep + i], **params[family]))
        return db

    db = bench.timed_setup(build, _close_files)
    before = _counters(db)

    def one_round(log: RoundLog) -> List:
        with log.block() as block:
            for i in range(spec["writes"]):
                obj = None if is_delete(i, spec["deletes_per_5"]) else inserts.pop()
                block.latency("write_lat", bench.write(db, obj))
        ids = bench.oracle.live_ids()
        samples = []
        db.reset_statistics()
        for family, (count, size) in spec["batches"].items():
            for _ in range(count):
                requests = [bench.req[family](pools[family].pop(), **params[family])
                            for _ in range(size)]
                bench.log.attempted += size
                with log.block() as block, bench.phase("op.read", n=size):
                    start = time.perf_counter()
                    results = db.execute_batch(requests)
                    block.done(family, size, time.perf_counter() - start)
                samples.append((requests[0], results[0], ids))
                for result in results:
                    bench.note_result(family, result)
        for family, count in spec["single"].items():
            with log.block() as block:
                for j in range(count):
                    request = bench.req[family](pools[family].pop(), **params[family])
                    bench.log.attempted += 1
                    with bench.phase("op.read", n=1):
                        start = time.perf_counter()
                        result = db.execute(request)
                        block.latency(f"{family}_lat", time.perf_counter() - start)
                    bench.note_result(family, result)
                    if j == 0:
                        samples.append((request, result, ids))
        log.reads = sum(per_round.values())
        log.accesses = db.object_accesses
        return samples

    bench.run_rounds(one_round, spec["min_round_s"])
    bench.counter_delta(before, _counters(db))
    bench.timed_recoveries(
        bench.workdir / f"library-{SETUP_REPS - 1}",
        lambda path: FuzzyDatabase.recover(path, config=config, resume=False),
        params["aknn"],
        _close_files,
    )
    _close_files(db)


# ---------------------------------------------------------------------------
# service_cold
# ---------------------------------------------------------------------------
SERVICE = {
    # One shard, so the fan-out runs on the flusher thread.  With 2 shards
    # (one pool thread each) the workload's speed followed whether the
    # machine's second core was free, which the single-threaded reference
    # loop cannot see: two sets of 10 runs differed by +25 to +37 % on the
    # read rates after drift correction.
    "shards": 1,
    # per family: requests per closed-loop phase (the loop drains between
    # phases, where the reference loop brackets them) and requests kept
    # outstanding
    "phases": {"aknn": (40,) * 8, "range": (24,) * 4, "sweep": (10,) * 2, "reverse": (2,) * 2},
    "outstanding": {"aknn": 4, "range": 4, "sweep": 2, "reverse": 1},
    # one write per this many read submissions, issued when the phase that
    # called for it has drained (440 submissions a round: every round writes
    # at the same points).  Writes issued while reads were in flight spread
    # their median 33-39 % between seeds: it moved with how often a write
    # met a busy shard lock or flusher.
    "reads_per_write": 8,
    # the shard trees split on most inserts (each compaction repacks them
    # full), so inserts are the expensive mode here
    "deletes_per_5": 4,
    "subscriptions": (
        ("aknn", {"k": 8, "alpha": 0.5}),
        ("range", {"alpha": 0.5, "radius": 3.0}),
    ),
    # Writes aimed at the standing queries, by write index in a round:
    # index -> standing query.  An insert there lands within +-1 of the
    # query's centre, so it passes the screen and is evaluated; a delete
    # there removes one of the query's current members, which makes the
    # AKNN subscription re-query.  Random writes almost never touch a
    # standing query's answer in a 100 x 100 space.
    "aimed": {0: 0, 1: 0, 2: 1, 5: 1},
    # WAL appends per shard between snapshots, and the lazy-delete share of a
    # shard that triggers an STR repack: sized so every run takes snapshots
    # and compactions
    "snapshot_every": 32,
    "compaction_debt_ratio": 0.01,
    "min_round_s": 2.0,
}

# Parameter spreads: bucket keys rarely repeat, so the coalescer seldom
# shares a flush and batching gains stay diluted.
_ALPHAS = tuple(round(0.30 + 0.025 * i, 3) for i in range(17))


def _service_params(family: str, rng: np.random.Generator) -> Dict:
    alpha = float(_ALPHAS[rng.integers(len(_ALPHAS))])
    if family == "aknn":
        return {"k": int(rng.integers(4, 13)), "alpha": alpha}
    if family == "range":
        return {"alpha": alpha, "radius": round(float(rng.uniform(2.0, 4.0)), 3)}
    if family == "sweep":
        low = float(_ALPHAS[rng.integers(9)])
        return {"k": int(rng.integers(3, 7)), "alpha_range": (low, round(low + 0.2, 3))}
    return {"k": int(rng.integers(3, 7)), "alpha": alpha}


class _Flight:
    """One in-flight service request and what the load generator knows of it."""

    __slots__ = ("family", "request", "future", "submitted", "done", "ids")


def service_cold(bench: Bench) -> None:
    from repro import QueryService, RuntimeConfig, ShardedDatabase
    from repro.exceptions import DeadlineExceededError, ServiceOverloadedError

    spec = SERVICE
    families = tuple(spec["phases"])
    quota = {f: sum(phases) for f, phases in spec["phases"].items()}
    config = RuntimeConfig(
        cache_capacity=0,
        service_shards=spec["shards"],
        snapshot_every=spec["snapshot_every"],
        compaction_debt_ratio=spec["compaction_debt_ratio"],
    )
    rounds = bench.max_rounds(spec["min_round_s"])
    param_rng = seeded_rng(bench.seed, 4)
    pools = {f: [bench.req[f](q, **_service_params(f, param_rng))
                 for q in bench.pool(10 + i, quota[f] * rounds)]
             for i, f in enumerate(families)}
    warm = bench.pool(20, 4 * SETUP_REPS)
    n_standing = len(spec["subscriptions"])
    standing = bench.pool(21, n_standing * SETUP_REPS)
    writes_per_round = sum(quota.values()) // spec["reads_per_write"]
    inserts = bench.pool(30, _inserts_needed(writes_per_round, spec["deletes_per_5"], rounds))
    # Inserts aimed at the standing queries of the set-up that is kept.
    near = [bench.pool(50 + i, rounds, around=query.points.mean(axis=0))
            for i, query in enumerate(standing[-n_standing:])]
    warm_params = LIBRARY["params"]
    bench.per_round(quota["aknn"], writes_per_round)
    bench.mark("inputs")
    deliveries: List = []

    def build(rep: int):
        db = ShardedDatabase.build(
            bench.objects, n_shards=spec["shards"], placement="hash", config=config)
        db.enable_durability(bench.workdir / f"service-{rep}")
        service = QueryService(db).start()
        deliveries.clear()
        for i, (family, kwargs) in enumerate(spec["subscriptions"]):
            request = bench.req[family](standing[n_standing * rep + i], **kwargs)
            deliveries.append((request, service.subscribe(request), []))
        for i, family in enumerate(families):
            service.execute(bench.req[family](warm[4 * rep + i], **warm_params[family]))
        return service

    def discard(service) -> None:
        service.stop()
        service.database.close()

    service = bench.timed_setup(build, discard)
    db = service.database

    def drain() -> None:
        for _, delivery, stream in deliveries:
            stream.extend(delivery.drain())
            if delivery.shed:
                bench.log.fail("subscriber_shed")

    def write(index: int) -> float:
        aimed = spec["aimed"].get(index)
        if not is_delete(index, spec["deletes_per_5"]):
            return bench.write(service, near[aimed].pop() if aimed is not None else inserts.pop())
        if aimed is None:
            return bench.write(service)
        return bench.write(service, victims=bench.members(deliveries[aimed][0]))

    before = dict(db.metrics.as_dict())
    before_service = dict(service.metrics.as_dict())

    def one_round(log: RoundLog) -> List:
        samples: Dict[str, tuple] = {}
        submitted, writes = [0], [0]
        db.reset_statistics()

        def settle(flight: _Flight, block) -> None:
            try:
                result = flight.future.result()
            except DeadlineExceededError:
                bench.log.fail("deadline")
                return
            except Exception as error:
                bench.log.fail("exception")
                bench.errors.append(f"{flight.family}: {error!r}")
                return
            if check_coverage(result):
                bench.log.fail("partial_coverage")
                return
            block.latency(f"{flight.family}_lat", flight.done - flight.submitted)
            bench.note_result(flight.family, result)
            # Writes run only between phases, so the database held exactly
            # the ledger's ids while this request was in flight.
            samples.setdefault(flight.family, (flight.request, result, flight.ids))

        def submit(family: str, in_flight: Dict) -> None:
            flight = _Flight()
            flight.family, flight.request = family, pools[family].pop()
            flight.ids = bench.oracle.live_ids()
            flight.done = None
            bench.log.attempted += 1
            flight.submitted = time.perf_counter()
            try:
                flight.future = service.submit_request(flight.request)
            except ServiceOverloadedError:
                bench.log.fail("shed")
                return

            def finished(_future, flight=flight) -> None:
                flight.done = time.perf_counter()

            flight.future.add_done_callback(finished)
            in_flight[flight.future] = flight

        for family in families:
            depth = spec["outstanding"][family]
            for size in spec["phases"][family]:
                in_flight: Dict = {}
                with log.block() as block:
                    sent = 0
                    start = time.perf_counter()
                    last = start
                    while sent < size or in_flight:
                        while sent < size and len(in_flight) < depth:
                            submit(family, in_flight)
                            sent += 1
                        if not in_flight:
                            continue
                        done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                        for future in done:
                            flight = in_flight.pop(future)
                            # wait() can return before the done callback has run.
                            while flight.done is None:
                                time.sleep(0)
                            last = max(last, flight.done)
                            settle(flight, block)
                    block.done(family, size, last - start)
                # The writes this phase's submissions call for, issued once
                # it has drained (see SERVICE["reads_per_write"]).
                due = (submitted[0] + size) // spec["reads_per_write"] - writes[0]
                submitted[0] += size
                with log.block() as block:
                    for _ in range(due):
                        block.latency("write_lat", write(writes[0]))
                        writes[0] += 1
                        drain()
        log.reads = sum(quota.values())
        log.accesses = db.object_accesses
        return list(samples.values())

    bench.run_rounds(one_round, spec["min_round_s"])
    bench.counter_delta(before, db.metrics.as_dict())
    bench.counter_delta(before_service, service.metrics.as_dict())
    service.stop()
    drain()
    for request, _, stream in deliveries:
        bench.check_subscription(request, stream)
    bench.timed_recoveries(
        bench.workdir / f"service-{SETUP_REPS - 1}",
        lambda path: ShardedDatabase.recover(path, config=config, resume=False),
        warm_params["aknn"],
        lambda engine: engine.close(),
    )
    db.close()


WORKLOADS = {
    "library_hot": library_hot,
    "service_cold": service_cold,
}
