"""Shared pieces of the benchmark: inputs, drift correction, statistics.

Nothing here imports the program under test except :func:`make_objects`,
which uses the paper's Section 6.1 generator from ``repro.datasets``.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Drift correction
# ---------------------------------------------------------------------------
# The machines this runs on change speed by up to ~2x within a second (a busy
# sibling hyperthread, frequency steps), which moves every timing of a run
# the same way.  A fixed reference loop, timed only while no request is
# outstanding, measures that speed.  It is timed immediately before and after
# every timed block (one batch, one family's single calls, one write burst,
# one closed-loop phase) and every one-shot phase (set-up, recovery); each
# time of the block is multiplied, and each rate divided, by
# REFERENCE_NOMINAL_S / c_block, where c_block is the mean of the two
# bracketing reference times.  The constant is the loop's median on an idle
# 2-vCPU x86-64 sandbox (Python 3.11, NumPy 2), so corrected figures read in
# that machine's seconds.
REFERENCE_NOMINAL_S = 0.0030
REFERENCE_ITERATIONS = 400
BRACKET_REPS = 3


def reference_loop() -> float:
    """Fixed work mixing Python-level loops and small NumPy array operations."""
    base = np.linspace(0.0, 1.0, 48)
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        shifted = base * 1.000001 + i
        acc += float(shifted.min()) + float(np.dot(shifted[:8], shifted[:8]))
        values = [x * 0.5 for x in range(24)]
        acc += sum(values) if i % 2 else max(values)
    return acc


def reference_time() -> float:
    """Median wall time of BRACKET_REPS reference loops, in seconds."""
    times = []
    for _ in range(BRACKET_REPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Block:
    """Observations of one bracketed block, raw until the block closes."""

    def __init__(self) -> None:
        self.latencies: List[Tuple[str, float]] = []
        self.work: List[Tuple[str, int, float]] = []
        self.factor = math.nan

    def latency(self, key: str, seconds: float) -> None:
        """One request (or write) latency."""
        self.latencies.append((key, seconds))

    def done(self, family: str, requests: int, seconds: float) -> None:
        """``requests`` of ``family`` completed in ``seconds`` of wall time."""
        self.work.append((family, requests, seconds))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
# Tail rule: the highest percentile on this grid that leaves at least
# TAIL_MIN_BEYOND samples above it.  It is chosen from the sample count every
# run is guaranteed (MIN_ROUNDS whole rounds), not the count a run happened
# to reach, so a faster or slower run reports the same percentile.
TAIL_GRID = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(guaranteed: int) -> float:
    for pct in TAIL_GRID:
        if guaranteed * (100.0 - pct) >= TAIL_MIN_BEYOND * 100.0:
            return pct
    return 50.0


def tail(values: Sequence[float], guaranteed: int) -> Tuple[float, float, int]:
    """``(value, percentile, sample count)`` under the tail rule."""
    pct = tail_percentile(min(guaranteed, len(values)))
    if not values:
        return (math.nan, pct, 0)
    return (float(np.percentile(values, pct)), pct, len(values))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


# ---------------------------------------------------------------------------
# Measurements of one run
# ---------------------------------------------------------------------------
FAMILIES = ("aknn", "range", "sweep", "reverse")


class RoundLog:
    """The blocks of one round; each block is bracketed by the reference
    loop, and adjacent blocks share the sample between them."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self._last: Optional[float] = None
        self.reads = 0
        self.accesses = 0

    @contextmanager
    def block(self):
        before = self._last if self._last is not None else reference_time()
        block = Block()
        yield block
        after = reference_time()
        self._last = after
        block.factor = REFERENCE_NOMINAL_S / ((before + after) / 2.0)
        self.blocks.append(block)


class RunLog:
    """Every measurement of a run, raw and drift-corrected."""

    def __init__(self) -> None:
        self.factors: List[float] = []
        self.raw: Dict[str, List[float]] = {}
        self.corrected: Dict[str, List[float]] = {}
        self.rounds = 0
        self.reads = 0
        self.writes = 0
        self.accesses = 0
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}
        # Latency samples every run is guaranteed, per key (sets the tail).
        self.guaranteed: Dict[str, int] = {}

    def _add(self, key: str, raw: float, corrected: float) -> None:
        self.raw.setdefault(key, []).append(raw)
        self.corrected.setdefault(key, []).append(corrected)

    def one_shot(self, key: str, run: Callable[[], object]):
        """Time ``run()`` bracketed by the reference loop; returns its value."""
        before = reference_time()
        start = time.perf_counter()
        value = run()
        elapsed = time.perf_counter() - start
        factor = REFERENCE_NOMINAL_S / ((before + reference_time()) / 2.0)
        self.factors.append(factor)
        self._add(key, elapsed, elapsed * factor)
        return value

    def close_round(self, log: RoundLog) -> None:
        """Fold a finished round in: each latency, and each block's rate."""
        self.rounds += 1
        for block in log.blocks:
            self.factors.append(block.factor)
            for key, value in block.latencies:
                self._add(key, value, value * block.factor)
            for family, requests, seconds in block.work:
                rate = requests / seconds
                self._add(f"{family}_rate", rate, rate / block.factor)
        self.reads += log.reads
        self.writes += sum(1 for b in log.blocks for k, _ in b.latencies if k == "write_lat")
        self.accesses += log.accesses

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.failures[kind] = self.failures.get(kind, 0) + count

    def end_to_end(self, which: str = "corrected") -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics as ``{name: (value, unit)}``."""
        data = self.corrected if which == "corrected" else self.raw
        out: Dict[str, Tuple[float, str]] = {}
        out["setup_s"] = (median(data.get("setup", [])), "s")
        for family in FAMILIES:
            out[f"{family}_qps"] = (median(data.get(f"{family}_rate", [])), "1/s")
        for family in FAMILIES:
            lat = data.get(f"{family}_lat", [])
            out[f"{family}_p50_ms"] = (median(lat) * 1000.0, "ms")
        out["aknn_tail_ms"] = (self._tail(data, "aknn_lat")[0] * 1000.0, "ms")
        out["write_p50_ms"] = (median(data.get("write_lat", [])) * 1000.0, "ms")
        out["write_tail_ms"] = (self._tail(data, "write_lat")[0] * 1000.0, "ms")
        out["recover_s"] = (median(data.get("recover", [])), "s")
        out["accesses_per_query"] = (
            self.accesses / self.reads if self.reads else math.nan,
            "count",
        )
        return out

    def _tail(self, data, key: str) -> Tuple[float, float, int]:
        return tail(data.get(key, []), self.guaranteed.get(key, 0))

    def tail_descriptions(self) -> Dict[str, str]:
        out = {}
        for key, name in (("aknn_lat", "aknn_tail_ms"), ("write_lat", "write_tail_ms")):
            _, pct, n = self._tail(self.corrected, key)
            out[name] = f"p{pct:g} of {n} samples"
        return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
N_OBJECTS = 5_000
POINTS_PER_OBJECT = 40


def make_objects(rng: np.random.Generator, count: int, first_id: Optional[int],
                 around: Optional[np.ndarray] = None):
    """``count`` Section 6.1 objects; ids from ``first_id`` or left unset.
    Centres are uniform over the space, or within +-1 of ``around``."""
    from repro.config import DEFAULTS
    from repro.datasets.synthetic import generate_synthetic_object

    objects = []
    for index in range(count):
        if around is None:
            center = rng.random(2) * DEFAULTS.space_size
        else:
            center = np.asarray(around, dtype=float) + rng.uniform(-1.0, 1.0, 2)
        objects.append(
            generate_synthetic_object(
                center,
                rng,
                points_per_object=POINTS_PER_OBJECT,
                object_id=None if first_id is None else first_id + index,
            )
        )
    return objects


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent deterministic stream ``stream`` of workload seed ``seed``."""
    return np.random.default_rng([int(seed), int(stream)])
