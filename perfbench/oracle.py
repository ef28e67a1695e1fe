"""Brute-force correctness oracle, independent of the program's search code.

It keeps its own copy of every object's points and memberships, computes
alpha-cuts (membership >= alpha) and the alpha-distance ``d_alpha`` (the
minimum pairwise Euclidean distance between two cuts) with plain NumPy over
*all* objects, and checks answers against those distances.  A state of the
database is a set of live ids; the load generator passes the set that was
current when an answer was produced.

Every ``check_*`` function returns a list of error strings (empty = correct).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

# Slack for comparing the program's distances with the oracle's: the two
# evaluate the same minimum through different arithmetic (KD-tree vs brute).
EPS = 1e-7
# Random alphas at which a sweep answer is checked.
SWEEP_ALPHAS = 3
# Non-members nearest the query that a reverse answer is checked against.
NON_MEMBERS = 4


class Oracle:
    """Append-only copy of every (two-dimensional) object the run ever stored."""

    def __init__(self, points_per_object: int) -> None:
        self._width = int(points_per_object)
        self._points = np.zeros((0, self._width, 2))
        self._members = np.zeros((0, self._width))
        self._rows: Dict[int, int] = {}
        self._live: set = set()
        self._live_cache = None
        self._cut_cache = None

    # -- state ---------------------------------------------------------
    def add(self, object_id: int, points: np.ndarray, memberships: np.ndarray) -> None:
        object_id = int(object_id)
        if object_id in self._rows:
            raise ValueError(f"oracle already holds object {object_id}")
        points = np.asarray(points, dtype=float)
        memberships = np.asarray(memberships, dtype=float)
        if points.shape[0] > self._width:
            raise ValueError("object has more points than the oracle's width")
        row = len(self._rows)
        if row == self._points.shape[0]:
            grow = max(64, row)
            self._points = np.concatenate(
                [self._points, np.zeros((grow, self._width, 2))]
            )
            self._members = np.concatenate([self._members, np.zeros((grow, self._width))])
        # Padding keeps membership 0, so it is never in an alpha-cut.
        self._points[row, : points.shape[0]] = points
        self._members[row, : memberships.shape[0]] = memberships
        self._rows[object_id] = row
        self._live.add(object_id)
        self._live_cache = None

    def remove(self, object_id: int) -> None:
        self._live.remove(int(object_id))
        self._live_cache = None

    def live_ids(self) -> np.ndarray:
        """Sorted live ids; the array is shared until the next mutation."""
        if self._live_cache is None:
            self._live_cache = np.asarray(sorted(self._live), dtype=np.int64)
        return self._live_cache

    def cut(self, object_id: int, alpha: float) -> np.ndarray:
        row = self._rows[int(object_id)]
        return self._points[row][self._members[row] >= alpha]

    # -- distances -----------------------------------------------------
    def _cuts(self, alpha: float, ids: np.ndarray):
        """Every point of the ``ids`` objects' alpha-cuts, flattened, with the
        start of each object's run (objects with an empty cut get none)."""
        key = (id(ids), len(ids), float(alpha))
        if self._cut_cache is not None and self._cut_cache[0] == key:
            return self._cut_cache[1]
        rows = np.asarray([self._rows[int(i)] for i in ids], dtype=np.int64)
        inside = self._members[rows] >= alpha
        flat = self._points[rows][inside]
        counts = inside.sum(axis=1)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        value = (np.ascontiguousarray(flat[:, 0]), np.ascontiguousarray(flat[:, 1]),
                 starts, counts)
        self._cut_cache = (key, value, ids)
        return value

    def distances(self, query_cut: np.ndarray, alpha: float, ids: np.ndarray) -> np.ndarray:
        """``d_alpha`` from a query alpha-cut to each of ``ids`` (inf: empty cut)."""
        xs, ys, starts, counts = self._cuts(alpha, ids)
        best = np.full(xs.shape, np.inf)
        for qx, qy in np.asarray(query_cut, dtype=float):
            dx = xs - qx
            dy = ys - qy
            np.minimum(best, dx * dx + dy * dy, out=best)
        out = np.full(len(ids), np.inf)
        present = counts > 0
        if best.size:
            out[present] = np.minimum.reduceat(best, starts[present])
        return np.sqrt(out)


def query_cut(query, alpha: float) -> np.ndarray:
    """The query's alpha-cut, from its raw arrays."""
    points = np.asarray(query.points, dtype=float)
    return points[np.asarray(query.memberships, dtype=float) >= alpha]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_knn(returned: Sequence[int], k: int, ids: np.ndarray, dist: np.ndarray) -> List[str]:
    """Exactly ``min(k, reachable)`` distinct live ids, all within the k-th distance."""
    errors: List[str] = []
    finite = np.isfinite(dist)
    expected = min(int(k), int(finite.sum()))
    returned = [int(i) for i in returned]
    if len(returned) != expected or len(set(returned)) != len(returned):
        errors.append(f"kNN returned {len(returned)} ids, expected {expected} distinct")
        return errors
    if expected == 0:
        return errors
    kth = float(np.sort(dist[finite])[expected - 1])
    position = {int(i): p for p, i in enumerate(ids)}
    for object_id in returned:
        p = position.get(object_id)
        if p is None:
            errors.append(f"kNN returned {object_id}, which is not live")
        elif not dist[p] <= kth + EPS:
            errors.append(
                f"kNN returned {object_id} at {dist[p]:.6f}, beyond the k-th "
                f"distance {kth:.6f}"
            )
    return errors


def check_range(returned: Iterable[int], radius: float, ids: np.ndarray, dist: np.ndarray) -> List[str]:
    """Set equality with ``{d <= radius}``; only ids within EPS of the radius may differ."""
    got = {int(i) for i in returned}
    must = {int(i) for i, d in zip(ids, dist) if d <= radius - EPS}
    may = {int(i) for i, d in zip(ids, dist) if d <= radius + EPS}
    errors = []
    missing = sorted(must - got)
    extra = sorted(got - may)
    if missing:
        errors.append(f"range missed {missing[:5]} ({len(missing)} in all)")
    if extra:
        errors.append(f"range returned {extra[:5]} beyond the radius ({len(extra)} in all)")
    return errors


def check_sweep(
    qualifying_at: Callable[[float], Sequence[int]],
    k: int,
    alphas: Sequence[float],
    oracle: Oracle,
    query,
    ids: np.ndarray,
) -> List[str]:
    """At each sampled alpha, the objects whose intervals contain it are the kNN."""
    errors = []
    for alpha in alphas:
        dist = oracle.distances(query_cut(query, alpha), alpha, ids)
        for error in check_knn(qualifying_at(alpha), k, ids, dist):
            errors.append(f"sweep at alpha={alpha:.4f}: {error}")
    return errors


def check_reverse(
    members: Sequence[int],
    k: int,
    alpha: float,
    oracle: Oracle,
    query,
    ids: np.ndarray,
) -> List[str]:
    """Members have the query within their k-th-neighbour distance; the
    NON_MEMBERS non-members nearest the query do not.

    Object ``A`` is a member iff fewer than ``k`` other live objects are
    strictly closer to ``A`` than the query is.
    """
    errors = []
    cut_q = query_cut(query, alpha)
    to_query = oracle.distances(cut_q, alpha, ids)
    position = {int(i): p for p, i in enumerate(ids)}
    member_set = {int(m) for m in members}
    for m in member_set:
        if m not in position:
            errors.append(f"reverse returned {m}, which is not live")
    order = [int(ids[p]) for p in np.argsort(to_query, kind="stable") if np.isfinite(to_query[p])]
    outsiders = [i for i in order if i not in member_set][:NON_MEMBERS]
    for object_id in sorted(member_set & set(position)) + outsiders:
        d_query = float(to_query[position[object_id]])
        cut_a = oracle.cut(object_id, alpha)
        if cut_a.shape[0] == 0:
            errors.append(f"reverse object {object_id} has an empty cut")
            continue
        others = oracle.distances(cut_a, alpha, ids)
        others[position[object_id]] = np.inf
        if object_id in member_set:
            closer = int((others < d_query - EPS).sum())
            if closer >= k:
                errors.append(
                    f"reverse member {object_id}: {closer} objects are closer than "
                    f"the query (k={k})"
                )
        else:
            closer = int((others < d_query + EPS).sum())
            if closer < k:
                errors.append(
                    f"reverse non-member {object_id}: only {closer} objects are "
                    f"closer than the query (k={k})"
                )
    return errors


def check_coverage(result) -> List[str]:
    coverage = getattr(result, "coverage", None)
    if coverage is None or not coverage.complete:
        return [f"sharded result without complete coverage: {coverage}"]
    return []


def fold_deltas(deltas) -> Tuple[Dict[int, float], List[str]]:
    """Replay a subscription's delta stream from empty; report seq gaps."""
    members: Dict[int, float] = {}
    errors: List[str] = []
    for expected_seq, delta in enumerate(deltas):
        if delta.seq != expected_seq:
            errors.append(f"delta stream gap: seq {delta.seq}, expected {expected_seq}")
        for object_id in delta.removed:
            members.pop(int(object_id), None)
        for object_id, distance in delta.added:
            members[int(object_id)] = float(distance)
    return members, errors


def check_answer(
    oracle: Oracle,
    request,
    result,
    ids: np.ndarray,
    rng: np.random.Generator,
) -> List[str]:
    """Check one answer of any family against the oracle at state ``ids``."""
    kind = type(request).__name__
    query = request.query
    if kind == "AknnRequest":
        dist = oracle.distances(query_cut(query, request.alpha), request.alpha, ids)
        return check_knn(result.object_ids, request.k, ids, dist)
    if kind == "RangeRequest":
        dist = oracle.distances(query_cut(query, request.alpha), request.alpha, ids)
        return check_range(result.object_ids, request.radius, ids, dist)
    if kind == "SweepRequest":
        low, high = request.alpha_range
        alphas = low + (high - low) * rng.random(SWEEP_ALPHAS)
        return check_sweep(result.qualifying_at, request.k, alphas, oracle, query, ids)
    if kind == "ReverseRequest":
        return check_reverse(result.object_ids, request.k, request.alpha, oracle, query, ids)
    return [f"no oracle for {kind}"]
