"""Seeded inputs for every workload.

Everything a run feeds the program is made here from ``--seed`` with
the generators and query helpers of :mod:`repro.data`; the program only
ever receives the resulting arrays.  The same seed gives the same
inputs (``perfbench/tests`` pins it).

The stored data of each workload is the same on every seed: it comes
from :data:`DATA_SEED`, so runs on different seeds measure one
database, and ``--seed`` draws the queries, the operation order, the
ingest sessions and the oracle sample.  (Across random databases the
cost of a query varies by half again, far more than any bound.)

Operations are grouped into *cycles*: a run executes whole cycles until
its time is up, so every run sees the same operation mix whatever the
machine's speed.  Within a cycle the order is shuffled with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.data import regular_queries, walk_like

#: Geometry shared by every workload (the paper's defaults).
OMEGA = 64
FEATURES = 4
PAGE_SIZE = 4096
K = 10

#: Seed of the stored data, fixed so that every run measures the same
#: database.
DATA_SEED = 20110612

#: Distinct queries drawn per run: about one per operation a run asks,
#: so that a run's figures average over many queries.
QUERY_POOL = 128

#: Engines and deferral settings mixed on the paged workload.
PAGED_CONFIGS: Tuple[Tuple[str, bool], ...] = tuple(
    (method, deferred)
    for method in ("ru-cost", "ru", "hlmj", "hlmj-wg")
    for deferred in (False, True)
)

#: k-NN engines mixed on the resident workload.
RESIDENT_METHODS = ("ru-cost", "ru", "hlmj", "hlmj-wg")


@dataclass(frozen=True)
class Op:
    """One query operation: which query, and how it is asked."""

    kind: str  # "knn", "range" or "stream"
    qkey: str
    method: str = "ru-cost"
    deferred: bool = False
    normalize: bool = False


@dataclass
class QueryInputs:
    """Data, queries and operation cycles for a query-only workload."""

    sequences: Dict[int, np.ndarray]
    queries: Dict[str, np.ndarray]
    cycles: List[List[Op]]
    #: Query keys compared against the exhaustive oracle.
    oracle_keys: List[str]
    buffer_fraction: float
    #: Radius for each range-query key (set once profiles exist).
    epsilons: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Session:
    """One group-committed ingest session."""

    append_sid: int
    append_values: np.ndarray
    extend_sid: int  # -1: nothing to extend yet
    extend_values: np.ndarray
    delete_sid: int  # -1: nothing old enough to delete

    @property
    def points(self) -> int:
        extended = self.extend_values.size if self.extend_sid >= 0 else 0
        return self.append_values.size + extended


@dataclass
class IngestInputs:
    seed: int
    base: Dict[int, np.ndarray]
    queries: Dict[str, np.ndarray]
    #: Sessions per checkpoint cycle, and sessions after the last one.
    cycle_sessions: int = 10
    tail_sessions: int = 20
    #: Every this many queries, one is kept for the exhaustive oracle.
    oracle_every: int = 41
    buffer_fraction: float = 0.05
    #: Sequences appended by the latest sessions that stay live.
    live_appends: int = 8

    def session(self, j: int) -> Session:
        """Session ``j``: append, extend the previous append, retire one.

        Made on demand from ``(seed, j)``, so a run of any length has
        its sessions without generating them up front.
        """
        rng = _rng(self.seed, 1000 + j)
        sid = 1000 + j
        return Session(
            append_sid=sid,
            append_values=walk_like(256, seed=_sub_seed(rng)),
            extend_sid=sid - 1 if j > 0 else -1,
            extend_values=rng.standard_normal(64).cumsum(),
            delete_sid=sid - self.live_appends if j >= self.live_appends else -1,
        )


@dataclass
class ServeInputs:
    sequences: Dict[int, np.ndarray]
    queries: Dict[str, np.ndarray]
    #: Query key of every request, in send order (reused cyclically).
    order: List[str]
    oracle_keys: List[str]
    buffer_fraction: float = 0.25


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _data(n: int, salt: int) -> np.ndarray:
    return walk_like(n, seed=int(_rng(DATA_SEED, salt).integers(0, 2**31 - 1)))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _shuffled(rng: np.random.Generator, ops: List[Op]) -> List[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


def knn_paged(seed: int) -> QueryInputs:
    """40k WALK-like points, |Q| = 256, 5 % buffer (4 of 93 pages).

    A cycle asks eight distinct queries, one per engine configuration,
    so a run asks about as many distinct queries as it has operations:
    the figures average over the query sample, not over a few queries.
    """
    rng = _rng(seed, 1)
    values = _data(40_000, 1)
    raw = regular_queries(values, 256, QUERY_POOL, seed=_sub_seed(rng), omega=OMEGA)
    queries = {f"q{i}": q for i, q in enumerate(raw)}
    width = len(PAGED_CONFIGS)
    cycles = []
    for c in range(len(raw) // width):
        ops = [
            Op("knn", f"q{width * c + j}", *PAGED_CONFIGS[(j + c) % width])
            for j in range(width)
        ]
        cycles.append(_shuffled(rng, ops))
    # Drawn from the first cycles, which every run reaches.
    oracle = sorted(rng.choice(8 * width, size=2, replace=False).tolist())
    return QueryInputs(
        sequences={0: values},
        queries=queries,
        cycles=cycles,
        oracle_keys=[f"q{i}" for i in oracle],
        buffer_fraction=0.05,
    )


def knn_resident(seed: int) -> QueryInputs:
    """40k WALK-like points held entirely in the buffer.

    A cycle asks 32 raw k-NN queries (|Q| = 256, eight per engine),
    eight streams, two range queries and one z-normalized k-NN query
    (|Q| = 128): 2 % of operations and about a fifth of the time, since
    one z-normalized query costs ten raw ones.  The z-normalized query
    is fixed with the data: one per cycle is too few to sample, and its
    cost varies threefold between queries.
    """
    rng = _rng(seed, 2)
    values = _data(40_000, 2)
    # Twice the usual pool: a run asks about 300 raw queries here, and the
    # p90 needs many distinct ones behind it.
    raw = regular_queries(values, 256, 2 * QUERY_POOL, seed=_sub_seed(rng), omega=OMEGA)
    queries = {f"q{i}": q for i, q in enumerate(raw)}
    queries["z0"] = regular_queries(values, 128, 1, seed=DATA_SEED, omega=OMEGA)[0]
    ranged = [f"r{i}" for i in range(2)]
    extra = regular_queries(values, 256, len(ranged), seed=_sub_seed(rng), omega=OMEGA)
    queries.update(zip(ranged, extra))
    cycles = []
    per_cycle = 40
    for c in range(len(raw) // per_cycle + 1):
        ops: List[Op] = []
        for j in range(per_cycle):
            key = f"q{(per_cycle * c + j) % len(raw)}"
            if j < 32:
                ops.append(Op("knn", key, RESIDENT_METHODS[(j + c) % len(RESIDENT_METHODS)]))
            else:
                ops.append(Op("stream", key))
        ops += [Op("range", key) for key in ranged]
        ops.append(Op("knn", "z0", normalize=True))
        cycles.append(_shuffled(rng, ops))
    return QueryInputs(
        sequences={0: values},
        queries=queries,
        cycles=cycles,
        oracle_keys=ranged + ["z0"],
        buffer_fraction=1.0,
    )


def ingest_mixed(seed: int) -> IngestInputs:
    """20k WALK-like base points; sessions append, extend and retire.

    Session ``j`` appends a 256-point sequence, extends the previous
    session's sequence by 64 points and deletes the sequence appended
    eight sessions earlier, so the database stays near 22k points
    however long the run lasts.  One RU-COST query (|Q| = 128) follows
    every session.
    """
    rng = _rng(seed, 3)
    base = _data(20_000, 3)
    raw = regular_queries(base, 128, QUERY_POOL, seed=_sub_seed(rng), omega=OMEGA)
    return IngestInputs(
        seed=seed,
        base={0: base},
        queries={f"q{i}": q for i, q in enumerate(raw)},
    )


def serve_sharded(seed: int) -> ServeInputs:
    """Two 10k WALK-like sequences, one per shard, |Q| = 128.

    Each shard must find its own top k, so a query costs more than on
    one database holding both sequences.  The buffer holds a quarter of
    each shard: 5 % would be a single page.
    """
    rng = _rng(seed, 4)
    sequences = {sid: _data(10_000, 40 + sid) for sid in (0, 1)}
    queries: Dict[str, np.ndarray] = {}
    for sid, values in sequences.items():
        picked = regular_queries(
            values, 128, QUERY_POOL // 2, seed=_sub_seed(rng), omega=OMEGA
        )
        queries.update({f"s{sid}q{i}": q for i, q in enumerate(picked)})
    keys = sorted(queries)
    order = [keys[i] for i in rng.permutation(len(keys))]
    # Drawn from the first requests, which every run sends.
    oracle = sorted(rng.choice(48, size=2, replace=False).tolist())
    return ServeInputs(
        sequences=sequences,
        queries=queries,
        order=order,
        oracle_keys=[order[i] for i in oracle],
    )


GENERATORS = {
    "knn-paged": knn_paged,
    "knn-resident": knn_resident,
    "ingest-mixed": ingest_mixed,
    "serve-sharded": serve_sharded,
}
