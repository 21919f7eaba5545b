"""The four workloads: set-up, the timed window, and answer checking.

Each workload class offers

* ``setup()``: build the program state the timed window needs (timed as
  ``setup_s``; run several times, median reported);
* ``prepare(state)``: untimed work before the window, such as warming;
* ``run(state, seconds, min_cycles)``: execute whole operation cycles
  until ``seconds`` have passed and at least ``min_cycles`` ran; the
  result's ``verify`` checks the answers afterwards;
* ``close(state)``: release what ``setup`` made.

Answers are checked after the window closes (:mod:`perfbench.oracle`).
All calls into the program go through module attributes at call time,
so the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
import repro.ingest
from perfbench import inputs as inp
from perfbench.oracle import (
    Answer,
    Checker,
    Profile,
    default_rho,
    distance_profile,
    sequence_profile,
)

#: Service workers on ``serve-sharded``.
SERVE_WORKERS = 2

#: Share of a ``serve-sharded`` run spent in its closed loop: one client
#: that sends its next request when the previous reply arrives.  Its
#: latencies are the workload's ``query_p50_ms`` and ``query_p90_ms``;
#: open-loop latencies swing with the machine's speed, because a fixed
#: offered rate is a different load on a slower machine.
CLOSED_LOOP_SHARE = 0.4

#: Open-loop ladder for ``serve-sharded``: (offered requests/s, share of
#: the run).  Fixed from the parent commit, where one closed-loop client
#: gets about 12 replies/s: the rungs offer roughly 25 %, 40 %, 65 % and
#: 115 % of that.
LADDER: Tuple[Tuple[float, float], ...] = (
    (3.0, 0.2),
    (5.0, 0.15),
    (8.0, 0.15),
    (14.0, 0.1),
)

#: ``query_p90_ms`` a rung must meet to count as sustained: three times
#: the closed-loop p90 on the parent commit.
LATENCY_LIMIT_MS = 450.0

#: Queries a closed-loop run asks at least, so that its p90 has ten
#: samples beyond it.
MIN_QUERY_SAMPLES = 110

#: Setups per run; the median is ``setup_s``.
SETUPS = 15


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Machine speed, from a fixed kernel timed between operations.

    The benchmark runs on shared machines whose speed drifts by a third
    from one run to the next.  Every reported time is multiplied by
    :meth:`factor`, the nominal over the measured median time of this
    kernel in the same run, so figures read as milliseconds on a machine
    of :data:`NOMINAL_S` speed.  The kernel mixes small NumPy operations
    with an interpreted loop, like the program's query path, and is
    benchmark code, so no change to the program moves it.
    """

    #: Median kernel time on the reference machine (2-core x86 VM,
    #: Python 3.11, NumPy 2), measured when it was otherwise idle.
    NOMINAL_S = 0.007

    def __init__(self) -> None:
        values = np.random.default_rng(0).standard_normal(3000).cumsum()
        self._values = values
        self._query = values[100:164].copy()
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        sequence_profile(self._values, self._query, 3)
        total = 0
        for i in range(20_000):
            total += i * i
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return self.NOMINAL_S / statistics.median(self.samples) if self.samples else 1.0


@dataclass
class QueryTally:
    """Sums of :class:`repro.QueryStats` fields over query operations."""

    queries: int = 0
    page_accesses: int = 0
    logical_reads: int = 0
    candidates: int = 0
    lb_keogh: int = 0
    lb_pruned: int = 0
    dtw: int = 0

    def add(self, stats: Any) -> None:
        self.queries += 1
        self.page_accesses += stats.page_accesses
        self.logical_reads += stats.logical_reads
        self.candidates += stats.candidates
        self.lb_keogh += stats.lb_keogh_computations
        self.lb_pruned += stats.pruned_by_lb_keogh
        self.dtw += stats.dtw_computations


@dataclass
class BufferTally:
    """Buffer-pool counter deltas, summed across pools and operations."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    retries: int = 0

    @staticmethod
    def snapshot(pools: List[Any]) -> Tuple[int, int, int, int]:
        totals = [0, 0, 0, 0]
        for pool in pools:
            s = pool.stats
            for i, value in enumerate((s.hits, s.misses, s.evictions, s.retries)):
                totals[i] += value
        return tuple(totals)  # type: ignore[return-value]

    def add(self, before: Tuple[int, ...], after: Tuple[int, ...]) -> None:
        self.hits += after[0] - before[0]
        self.misses += after[1] - before[1]
        self.evictions += after[2] - before[2]
        self.retries += after[3] - before[3]


@dataclass
class RunResult:
    """What one timed window produced, before metrics are derived."""

    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    #: Time spent inside calls to the program (the closure residual's base).
    busy_s: float = 0.0
    #: The client loop's share of ``busy_s`` (throughput's denominator).
    client_s: float = 0.0
    #: Nominal over measured machine speed (see :class:`SpeedProbe`).
    speed: float = 1.0
    #: Operations whose time the per-layer numbers are normalised by.
    ops: int = 0
    query_latencies: List[float] = field(default_factory=list)
    tally: QueryTally = field(default_factory=QueryTally)
    buffers: BufferTally = field(default_factory=BufferTally)
    rss_peak_mb: float = 0.0
    #: Workload-specific end-to-end figures: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Workload-specific per-layer figures: name -> (value, unit).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: Checks the answers; called after the window, with wrappers removed.
    verify: Callable[[], None] = lambda: None


def _pools(db: Any) -> List[Any]:
    shards = getattr(db, "shards", None)
    if shards is not None:
        return [shard.buffer for shard in shards.values()]
    return [db.buffer]


def ask(db: Any, op: inp.Op, query: np.ndarray, epsilon: float) -> Tuple[Answer, Any]:
    """Run one query operation; the result is fully consumed on return."""
    if op.kind == "stream":
        stream = db.iter_matches(query, k=inp.K)
        matches = list(stream)
        exact = not stream.interrupted and not stream.degraded
        return Answer([(m.sid, m.start, m.distance) for m in matches], exact), stream.stats
    if op.kind == "range":
        result = db.range_search(query, epsilon)
    else:
        result = db.search(
            query, k=inp.K, method=op.method, deferred=op.deferred, normalize=op.normalize
        )
    exact = not isinstance(result, repro.PartialResult) and not result.degraded
    return Answer([(m.sid, m.start, m.distance) for m in result.matches], exact), result.stats


def _expected(profile: Profile, op: inp.Op, epsilon: float) -> List[float]:
    return profile.within(epsilon) if op.kind == "range" else profile.topk(inp.K)


# ----------------------------------------------------------------------
# Closed-loop query workloads: knn-paged and knn-resident
# ----------------------------------------------------------------------


class QueryWorkload:
    """One client asking queries back to back over a built database."""

    #: Runs are whole cycles, so a replay of the same count repeats them.
    cyclic = True

    def __init__(self, name: str, data: inp.QueryInputs, cold_per_query: bool) -> None:
        self.name = name
        self.data = data
        self.cold_per_query = cold_per_query
        self.checker = Checker(dict(data.sequences), dict(data.queries))
        self._profiles: Dict[Tuple[str, bool], Profile] = {}
        ranged = {op.qkey for cycle in data.cycles for op in cycle if op.kind == "range"}
        for qkey in sorted(ranged):
            data.epsilons[qkey] = self.profile(qkey, False).range_epsilon(8)

    def profile(self, qkey: str, normalize: bool) -> Profile:
        key = (qkey, normalize)
        if key not in self._profiles:
            query = self.data.queries[qkey]
            self._profiles[key] = distance_profile(
                self.data.sequences, query, default_rho(query.size), normalize
            )
        return self._profiles[key]

    def setup(self) -> Any:
        db = repro.SubsequenceDatabase(
            omega=inp.OMEGA,
            features=inp.FEATURES,
            page_size=inp.PAGE_SIZE,
            buffer_fraction=self.data.buffer_fraction,
        )
        for sid, values in self.data.sequences.items():
            db.insert(sid, values)
        db.build()
        return db

    def prepare(self, db: Any) -> None:
        """Fault every page in, so a resident run reads nothing physically."""
        if not self.cold_per_query:
            for page_id in range(db.pager.num_pages):
                db.buffer.get(page_id)

    def close(self, db: Any) -> None:
        db.close()

    def run(self, db: Any, seconds: float, min_cycles: int) -> RunResult:
        out = RunResult()
        done: List[Tuple[inp.Op, Answer]] = []
        pools = _pools(db)
        probe = SpeedProbe()
        start = time.perf_counter()
        deadline = start + seconds
        while (
            out.cycles < min_cycles
            or time.perf_counter() < deadline
            or len(done) < MIN_QUERY_SAMPLES
        ):
            for op in self.data.cycles[out.cycles % len(self.data.cycles)]:
                query = self.data.queries[op.qkey]
                epsilon = self.data.epsilons.get(op.qkey, 0.0)
                if self.cold_per_query:
                    db.reset_cache()
                before = BufferTally.snapshot(pools)
                t0 = time.perf_counter()
                answer, stats = ask(db, op, query, epsilon)
                elapsed = time.perf_counter() - t0
                out.buffers.add(before, BufferTally.snapshot(pools))
                out.query_latencies.append(elapsed)
                out.busy_s += elapsed
                out.tally.add(stats)
                done.append((op, answer))
                probe.sample()
            out.cycles += 1
        out.window_s = time.perf_counter() - start
        out.client_s = out.busy_s
        out.speed = probe.factor()
        out.rss_peak_mb = rss_peak_mb()
        out.ops = len(done)

        def verify() -> None:
            for i, (op, answer) in enumerate(done):
                expected = None
                if op.qkey in self.data.oracle_keys:
                    expected = _expected(
                        self.profile(op.qkey, op.normalize),
                        op,
                        self.data.epsilons.get(op.qkey, 0.0),
                    )
                ok = self.checker.check(
                    f"{self.name} op {i} {op}", op.qkey, answer, op.normalize, expected
                )
                out.attempted += 1
                out.failed += 0 if ok else 1
            out.failures = list(self.checker.failures)
            self.checker.failures.clear()

        out.verify = verify
        return out


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------


@dataclass
class IngestState:
    db: Any
    root: str


class IngestWorkload:
    """Durable writes beside reads, ending with a timed recovery."""

    name = "ingest-mixed"
    cyclic = True

    def __init__(self, data: inp.IngestInputs, workdir: str) -> None:
        self.data = data
        self.workdir = workdir
        self._roots = 0

    def setup(self) -> IngestState:
        self._roots += 1
        root = os.path.join(self.workdir, f"root{self._roots}")
        db = repro.SubsequenceDatabase(
            omega=inp.OMEGA,
            features=inp.FEATURES,
            page_size=inp.PAGE_SIZE,
            buffer_fraction=self.data.buffer_fraction,
        )
        for sid, values in self.data.base.items():
            db.insert(sid, values)
        db.build()
        repro.ingest.create_durable(db, root, sync=True)
        return IngestState(db, root)

    def prepare(self, state: IngestState) -> None:
        pass

    def close(self, state: IngestState) -> None:
        if state.db.wal is not None and not state.db.wal.closed:
            state.db.wal.close()
        state.db.close()
        shutil.rmtree(state.root, ignore_errors=True)

    def run(self, state: IngestState, seconds: float, min_cycles: int) -> RunResult:
        data = self.data
        db = state.db
        out = RunResult()
        pools = _pools(db)
        live: Dict[int, np.ndarray] = {sid: v.copy() for sid, v in data.base.items()}
        every: Dict[int, np.ndarray] = dict(live)
        commits: List[float] = []
        points = 0
        checkpoints: List[float] = []
        answers: List[Tuple[str, Answer, Optional[Dict[int, int]]]] = []
        qkeys = sorted(data.queries)
        session_index = 0
        probe = SpeedProbe()

        def one_session() -> None:
            nonlocal session_index, points
            s = data.session(session_index)
            t0 = time.perf_counter()
            with db.ingest() as session:
                session.append(s.append_sid, s.append_values)
                if s.extend_sid >= 0:
                    session.extend(s.extend_sid, s.extend_values)
                if s.delete_sid >= 0:
                    session.delete(s.delete_sid)
            elapsed = time.perf_counter() - t0
            commits.append(elapsed)
            out.busy_s += elapsed
            points += s.points
            live[s.append_sid] = s.append_values
            if s.extend_sid >= 0:
                live[s.extend_sid] = np.concatenate([live[s.extend_sid], s.extend_values])
            if s.delete_sid >= 0:
                del live[s.delete_sid]
            every.update({sid: live[sid] for sid in (s.append_sid, s.extend_sid) if sid >= 0})

            qkey = qkeys[session_index % len(qkeys)]
            before = BufferTally.snapshot(pools)
            t0 = time.perf_counter()
            answer, stats = ask(db, inp.Op("knn", qkey), data.queries[qkey], 0.0)
            elapsed = time.perf_counter() - t0
            out.buffers.add(before, BufferTally.snapshot(pools))
            out.query_latencies.append(elapsed)
            out.busy_s += elapsed
            out.tally.add(stats)
            snapshot = None
            if session_index % data.oracle_every == 0:
                snapshot = {sid: values.size for sid, values in live.items()}
            answers.append((qkey, answer, snapshot))
            session_index += 1
            probe.sample()

        start = time.perf_counter()
        deadline = start + seconds
        while (
            out.cycles < min_cycles
            or time.perf_counter() < deadline
            or len(answers) < MIN_QUERY_SAMPLES
        ):
            for _ in range(data.cycle_sessions):
                one_session()
            t0 = time.perf_counter()
            repro.ingest.checkpoint_database(db)
            elapsed = time.perf_counter() - t0
            checkpoints.append(elapsed)
            out.busy_s += elapsed
            out.cycles += 1
        tail_from = points
        for _ in range(data.tail_sessions):
            one_session()
        tail_points = points - tail_from
        out.client_s = out.busy_s
        out.speed = probe.factor()
        db.wal.close()
        wal_bytes = os.path.getsize(os.path.join(state.root, repro.ingest.WAL_NAME))
        stored = _dir_bytes(state.root)
        input_bytes = 8 * sum(values.size for values in live.values())

        t0 = time.perf_counter()
        recovered, report = repro.ingest.recover_database(state.root)
        recovery_s = time.perf_counter() - t0
        out.busy_s += recovery_s
        out.window_s = time.perf_counter() - start
        out.rss_peak_mb = rss_peak_mb()
        out.ops = len(answers) + len(commits)

        def verify() -> None:
            checker = Checker(every, dict(data.queries))
            for i, (qkey, answer, snapshot) in enumerate(answers):
                expected = None
                if snapshot is not None:
                    state_then = {sid: every[sid][:n] for sid, n in snapshot.items()}
                    query = data.queries[qkey]
                    expected = distance_profile(state_then, query, default_rho(query.size)).topk(inp.K)
                out.attempted += 1
                if not checker.check(f"ingest query {i}", qkey, answer, False, expected):
                    out.failed += 1
            for qkey in qkeys[:3]:
                out.attempted += 1
                if not _same_answers(db, recovered, data.queries[qkey]):
                    out.failed += 1
                    checker.failures.append(f"recovered database answers {qkey} differently")
            if report.replayed_batches != data.tail_sessions:
                out.attempted += 1
                out.failed += 1
                checker.failures.append(
                    f"recovery replayed {report.replayed_batches} batches, "
                    f"expected {data.tail_sessions}"
                )
            recovered.wal.close()
            recovered.close()
            out.failures = checker.failures

        out.verify = verify
        speed = out.speed
        out.extra.update(
            commit_p50_ms=(1000 * percentile(commits, 50) * speed, "ms"),
            commit_p90_ms=(1000 * percentile(commits, 90) * speed, "ms"),
            ingest_points_per_s=(points / sum(commits) / speed, "1/s"),
            recovery_s=(recovery_s * speed, "s"),
            stored_bytes_per_input_byte=(stored / input_bytes, "B/B"),
            checkpoint_p50_ms=(1000 * percentile(checkpoints, 50) * speed, "ms"),
        )
        out.layers["storage.wal.bytes_per_input_byte"] = (
            wal_bytes / (8 * tail_points),
            "B/B",
        )
        out.layers["ingest.recover.ms"] = (1000 * recovery_s * speed, "ms")
        return out


def _dir_bytes(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


def _same_answers(live: Any, recovered: Any, query: np.ndarray) -> bool:
    """Byte-identical matches, distances and NUM_IO from a cold cache."""
    results = []
    for db in (live, recovered):
        db.reset_cache()
        result = db.search(query, k=inp.K, method="ru-cost")
        results.append(
            (
                [(m.sid, m.start, m.distance.hex()) for m in result.matches],
                result.stats.page_accesses,
            )
        )
    return results[0] == results[1]


# ----------------------------------------------------------------------
# serve-sharded
# ----------------------------------------------------------------------


@dataclass
class ServeState:
    db: Any
    service: Any


class ServeWorkload:
    """An open loop at fixed rates into a two-worker service over two shards."""

    name = "serve-sharded"
    cyclic = False

    def __init__(self, data: inp.ServeInputs) -> None:
        self.data = data
        self.checker = Checker(dict(data.sequences), dict(data.queries))
        self._profiles: Dict[str, Profile] = {}

    def setup(self) -> ServeState:
        db = repro.ShardedDatabase(
            2,
            policy="range",
            executor="thread",
            omega=inp.OMEGA,
            features=inp.FEATURES,
            page_size=inp.PAGE_SIZE,
            buffer_fraction=self.data.buffer_fraction,
        )
        for sid, values in self.data.sequences.items():
            db.insert(sid, values)
        db.build()
        service = repro.QueryService(
            db, repro.ServiceConfig(workers=SERVE_WORKERS, queue_capacity=256)
        ).start()
        return ServeState(db, service)

    def close(self, state: ServeState) -> None:
        state.service.shutdown()
        state.db.close()

    def prepare(self, state: ServeState) -> None:
        pass

    def _request(self, index: int) -> Tuple[str, Any]:
        key = self.data.order[index % len(self.data.order)]
        query = tuple(self.data.queries[key].tolist())
        return key, repro.QueryRequest(kind="knn", query=query, k=inp.K, request_id=index)

    def run(self, state: ServeState, seconds: float, min_cycles: int) -> RunResult:
        data = self.data
        service = state.service
        out = RunResult(cycles=1)
        pools = _pools(state.db)
        probe = SpeedProbe()
        before = BufferTally.snapshot(pools)
        # (rung or -1 for the closed loop, key, due, sent, pending)
        sent: List[Tuple[int, str, float, float, Any]] = []
        finished: Dict[int, float] = {}
        lock = threading.Lock()
        errors: List[str] = []

        def submit(rung: int, due: float) -> Any:
            index = len(sent)
            key, request = self._request(index)
            t_sent = time.perf_counter()
            try:
                pending = service.submit(request)
            except repro.ServiceOverloadedError as exc:
                errors.append(f"request {index} rejected: {exc}")
                pending = None
            else:

                def record(_: Any) -> None:
                    now = time.perf_counter()
                    with lock:
                        finished[index] = now

                pending.future.add_done_callback(record)
            sent.append((rung, key, due, t_sent, pending))
            return pending

        # One closed-loop client: the next request goes when the reply is in.
        # The service is idle between requests, so the probe runs there.
        start = time.perf_counter()
        closed_end = start + seconds * CLOSED_LOOP_SHARE
        while time.perf_counter() < closed_end or len(sent) < MIN_QUERY_SAMPLES:
            pending = submit(-1, time.perf_counter())
            if pending is not None:
                pending.future.exception(timeout=120)
            probe.sample()

        # The open-loop ladder, timed from each request's scheduled send.
        rung_bounds: List[Tuple[float, float]] = []
        rung_start = time.perf_counter()
        for rung, (rate, share) in enumerate(LADDER):
            n = max(1, int(round(rate * seconds * share)))
            for i in range(n):
                due = rung_start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submit(rung, due)
            rung_bounds.append((rung_start, rung_start + n / rate))
            rung_start += n / rate
        responses: List[Any] = []
        for _, key, _, _, pending in sent:
            if pending is None:
                responses.append(None)
                continue
            try:
                responses.append(pending.result(timeout=120))
            except Exception as exc:  # a failed request is counted, not fatal
                errors.append(f"{key}: {type(exc).__name__}: {exc}")
                responses.append(None)
        out.window_s = time.perf_counter() - start
        out.rss_peak_mb = rss_peak_mb()
        out.buffers.add(before, BufferTally.snapshot(pools))
        out.speed = speed = probe.factor()

        closed: List[float] = []
        latencies: List[List[float]] = [[] for _ in LADDER]
        # NUM_IO of each query asked alone (closed loop) and under load.
        alone: Dict[str, int] = {}
        served_pages: List[int] = []
        alone_pages: List[int] = []
        late: List[float] = []
        waits: List[float] = []
        execs: List[float] = []
        for index, (rung, key, due, t_sent, _) in enumerate(sent):
            response = responses[index]
            if response is None:
                continue
            if rung >= 0:
                late.append(t_sent - due)
                latencies[rung].append(finished[index] - due)
            else:
                closed.append(finished[index] - due)
            waits.append(response.queue_wait_s)
            execs.append(response.execution_s)
            out.busy_s += response.execution_s
            pages = response.result.stats.page_accesses
            if rung < 0:
                out.tally.add(response.result.stats)
                alone.setdefault(key, pages)
            elif key in alone:
                served_pages.append(pages)
                alone_pages.append(alone[key])
        out.ops = len(execs)

        def verify() -> None:
            for index, (_, key, _, _, _) in enumerate(sent):
                response = responses[index]
                out.attempted += 1
                if response is None:
                    out.failed += 1
                    continue
                answer = Answer(
                    [(m.sid, m.start, m.distance) for m in response.result.matches],
                    response.exact and not response.partial,
                )
                expected = None
                if key in data.oracle_keys:
                    if key not in self._profiles:
                        query = data.queries[key]
                        self._profiles[key] = distance_profile(
                            data.sequences, query, default_rho(query.size)
                        )
                    expected = self._profiles[key].topk(inp.K)
                if not self.checker.check(f"serve request {index}", key, answer, False, expected):
                    out.failed += 1
            out.failures = errors + self.checker.failures
            self.checker.failures.clear()

        out.verify = verify

        sustained = 0.0
        limit_s = LATENCY_LIMIT_MS / 1000 / speed
        for rung, (rate, _) in enumerate(LADDER):
            _, rung_end = rung_bounds[rung]
            indices = [i for i, entry in enumerate(sent) if entry[0] == rung]
            on_time = sum(1 for i in indices if finished.get(i, math.inf) <= rung_end + limit_s)
            p90 = 1000 * percentile(latencies[rung], 90) * speed
            out.extra[f"rung{rung}_p90_ms"] = (p90, "ms")
            if p90 <= LATENCY_LIMIT_MS and on_time >= 0.95 * len(indices):
                sustained = rate
        out.query_latencies = closed
        out.extra["sustained_qps"] = (sustained, "1/s")
        out.client_s = sum(closed)
        stats = service.stats
        out.layers.update(
            {
                "serve.queue.wait_p50_ms": (1000 * percentile(waits, 50) * speed, "ms"),
                "serve.queue.wait_p90_ms": (1000 * percentile(waits, 90) * speed, "ms"),
                "serve.exec_p50_ms": (1000 * percentile(execs, 50) * speed, "ms"),
                "serve.rejected": (float(stats.rejected), "count"),
                "serve.shed": (float(stats.shed), "count"),
                "serve.partial": (float(stats.partial), "count"),
                "serve.pages_per_query_alone": (
                    statistics.fmean(alone_pages) if alone_pages else 0.0,
                    "1/op",
                ),
                "serve.pages_per_query_served": (
                    statistics.fmean(served_pages) if served_pages else 0.0,
                    "1/op",
                ),
                "loadgen.late_p99_ms": (1000 * percentile(late, 99) * speed, "ms"),
            }
        )
        return out


def make(name: str, seed: int, workdir: str) -> Any:
    data = inp.GENERATORS[name](seed)
    if name == "knn-paged":
        return QueryWorkload(name, data, cold_per_query=True)
    if name == "knn-resident":
        return QueryWorkload(name, data, cold_per_query=False)
    if name == "ingest-mixed":
        return IngestWorkload(data, workdir)
    return ServeWorkload(data)
