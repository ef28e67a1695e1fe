"""The benchmark's own checks: the oracle rejects corrupted answers, and the
sharded layer's self time is derived right from span lists.

A small database answers one request of every family; the untouched answers
must pass the oracle, and each deliberately corrupted copy must fail it.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    AknnRequest,
    FuzzyDatabase,
    RangeRequest,
    ReverseRequest,
    RuntimeConfig,
    SweepRequest,
)
from repro.core.results import Coverage  # noqa: E402

from perfbench.common import make_objects, seeded_rng, tail, tail_percentile  # noqa: E402
from perfbench.oracle import (  # noqa: E402
    Oracle,
    check_answer,
    check_coverage,
    fold_deltas,
)


@pytest.fixture(scope="module")
def world():
    objects = make_objects(seeded_rng(7, 0), 300, first_id=0)
    oracle = Oracle(points_per_object=40)
    for obj in objects:
        oracle.add(obj.object_id, obj.points, obj.memberships)
    db = FuzzyDatabase.build(objects, config=RuntimeConfig(cache_capacity=1024))
    queries = make_objects(seeded_rng(7, 1), 4, first_id=None)
    # Space is 100 x 100; 300 objects are sparse, so radii and k are generous.
    requests = {
        "aknn": AknnRequest(queries[0], k=6, alpha=0.5),
        "range": RangeRequest(queries[1], alpha=0.5, radius=12.0),
        "sweep": SweepRequest(queries[2], k=4, alpha_range=(0.3, 0.7)),
        "reverse": ReverseRequest(queries[3], k=3, alpha=0.5),
    }
    results = {family: db.execute(request) for family, request in requests.items()}
    yield oracle, requests, results
    db.close()


def _check(world, family, result):
    oracle, requests, _ = world
    return check_answer(oracle, requests[family], result, oracle.live_ids(),
                        np.random.default_rng(0))


@pytest.mark.parametrize("family", ["aknn", "range", "sweep", "reverse"])
def test_correct_answers_pass(world, family):
    assert _check(world, family, world[2][family]) == []


def test_aknn_with_a_neighbour_dropped_fails(world):
    result = world[2]["aknn"]
    corrupted = replace(result, neighbors=result.neighbors[:-1])
    assert _check(world, "aknn", corrupted)


def test_aknn_with_a_far_neighbour_swapped_in_fails(world):
    oracle, _, results = world
    result = results["aknn"]
    outsider = max(int(i) for i in oracle.live_ids() if int(i) not in result.object_ids)
    far = replace(result.neighbors[-1], object_id=outsider)
    corrupted = replace(result, neighbors=result.neighbors[:-1] + [far])
    assert _check(world, "aknn", corrupted)


def test_range_with_a_match_added_fails(world):
    oracle, _, results = world
    result = results["range"]
    assert len(result) > 0
    outsider = next(int(i) for i in oracle.live_ids() if int(i) not in result.object_ids)
    corrupted = replace(result, matches=result.matches + [(outsider, 0.0)])
    assert _check(world, "range", corrupted)


def test_range_with_a_match_dropped_fails(world):
    result = world[2]["range"]
    corrupted = replace(result, matches=result.matches[1:])
    assert _check(world, "range", corrupted)


def test_sweep_with_a_qualifying_object_dropped_fails(world):
    result = world[2]["sweep"]
    assignments = dict(result.assignments)
    covering = [i for i, ranges in assignments.items() if ranges.contains(0.5)]
    for object_id in covering:
        del assignments[object_id]
    corrupted = replace(result, assignments=assignments)
    assert _check(world, "sweep", corrupted)


def test_reverse_with_a_member_dropped_fails(world):
    result = world[2]["reverse"]
    assert len(result) > 0
    corrupted = replace(result, object_ids=result.object_ids[1:])
    assert _check(world, "reverse", corrupted)


def test_reverse_with_a_non_member_added_fails(world):
    oracle, requests, results = world
    result = results["reverse"]
    outsider = next(int(i) for i in oracle.live_ids() if int(i) not in result.object_ids)
    corrupted = replace(result, object_ids=sorted(result.object_ids + [outsider]))
    assert _check(world, "reverse", corrupted)


def test_answer_on_a_stale_state_fails(world):
    """An answer checked against a state that lost one of its ids fails."""
    oracle, requests, results = world
    result = results["aknn"]
    ids = oracle.live_ids()
    stale = ids[ids != result.object_ids[0]]
    assert check_answer(oracle, requests["aknn"], result, stale, np.random.default_rng(0))


def test_partial_coverage_fails():
    partial = type("R", (), {"coverage": Coverage(total_shards=2, answered=(0,), failed=(1,))})()
    complete = type("R", (), {"coverage": Coverage(total_shards=2, answered=(0, 1))})()
    assert check_coverage(partial)
    assert check_coverage(complete) == []


def test_delta_fold_replays_and_reports_gaps():
    from repro import ResultDelta

    stream = [
        ResultDelta(0, 0, added=((1, 0.5), (2, 0.7))),
        ResultDelta(0, 1, added=((3, 0.2),), removed=(2,), cause="insert"),
    ]
    members, errors = fold_deltas(stream)
    assert members == {1: 0.5, 3: 0.2} and errors == []
    _, errors = fold_deltas([stream[1]])
    assert errors


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(39) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    value, pct, n = tail(list(range(1, 201)), guaranteed=120)
    assert (pct, n) == (90.0, 200) and 180.0 <= value <= 181.0


def _layer_metrics(spans):
    from perfbench.spans import Tracer, layer_metrics

    ctx = {"factor": 1.0, "reads": 1, "writes": 0, "rounds": 1,
           "counters": {}, "results": {}}
    return layer_metrics(spans, Tracer(), ctx)


def test_sharded_self_time_with_one_inline_shard():
    """One shard: the searcher runs on the bucket's own thread."""
    spans = [  # id, name, start, end, thread, parent, attrs
        [1, "round", 0.0, 20.0, 1, None, None],
        [2, "query_service.execute_plan", 1.0, 11.0, 2, None, {"n": 1}],
        [3, "aknn.search", 3.0, 7.0, 2, 2, None],
        [4, "executor.aknn_batch", 4.0, 6.0, 2, 3, {"n": 1}],
    ]
    metrics = _layer_metrics(spans)
    assert metrics["sharded.self_ms"] == pytest.approx(6_000.0)
    assert metrics["sharded.parallelism"] == pytest.approx(0.4)


def test_sharded_self_time_with_two_pooled_shards():
    """Two shards on pool threads: overlapping shard work counts once in
    the self time and twice in the parallelism."""
    spans = [
        [1, "round", 0.0, 20.0, 1, None, None],
        [2, "query_service.execute_plan", 1.0, 11.0, 2, None, {"n": 2}],
        [3, "pool.task", 2.0, 8.0, 3, 2, None],
        [4, "pool.task", 2.0, 9.5, 4, 2, None],
        [5, "aknn.search", 2.5, 7.5, 3, 3, None],
        [6, "aknn.search", 4.0, 9.0, 4, 4, None],
        [7, "executor.aknn_batch", 5.0, 6.0, 4, 6, {"n": 1}],
    ]
    metrics = _layer_metrics(spans)
    assert metrics["sharded.self_ms"] == pytest.approx(3_500.0)
    assert metrics["sharded.parallelism"] == pytest.approx(1.0)
