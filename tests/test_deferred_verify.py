"""Batched verification of deferred flushes against the one-at-a-time drain.

A deferred flush retrieves its candidates in storage order, runs one
wavefront DTW pass over the candidates whose LB_Keogh bound passes the
threshold at drain start, then replays the paper's cascade decisions in
storage order against the live threshold.  The reference below is the
drain it replaced: retrieve one candidate, cascade it, retrieve the
next.  Every counter, every distance repr, every match, and every
interrupted query's certificate and requeued bound must agree.
"""

from contextlib import contextmanager
from typing import Iterator, List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SubsequenceDatabase
from repro.control import CancellationToken, ExecutionControl, QueryBudget
from repro.core.distance import dtw_pow, wavefront_pays
from repro.core.lower_bounds import lb_keogh_pow
from repro.core.normalize import znormalize
from repro.core.reference import brute_force_topk
from repro.engines import base
from repro.engines.base import CandidateEvaluator, EngineConfig, PartialResult
from repro.exceptions import StorageError
from repro.obs import Tracer

from tests.conftest import make_walk
from tests.test_engines_stats import GOLDEN_STAT_KEYS


class OneAtATimeEvaluator(CandidateEvaluator):
    """The deferred drain before batched verification, kept as an oracle.

    Each request is retrieved and fully verified — LB_Keogh, then the
    early-abandoning scalar DTW at the threshold of that moment — before
    the next one is retrieved.
    """

    def _drain_now(self) -> None:
        for request in self._deferred.drain(
            threshold=self.threshold_pow, checkpoint=self.control.checkpoint
        ):
            self._evaluate_one(request.sid, request.start)

    def _evaluate_one(self, sid: int, start: int) -> None:
        try:
            values = self._index.store.get_subsequence(
                sid, start, self.query_length
            )
        except StorageError as error:
            self.fault(error, candidate=(sid, start))
            return
        self.stats.candidates += 1
        if self.norm is not None:
            mu, sigma = self.norm.stats(sid, start)
            values = znormalize(values, mu, sigma)
        traced = self.tracer.enabled
        threshold_pow = self.threshold_pow
        self.stats.lb_keogh_computations += 1
        if lb_keogh_pow(self._envelope, values, self._config.p) > threshold_pow:
            self.stats.pruned_by_lb_keogh += 1
            if traced:
                self.tracer.metrics.counter("verify.lb_keogh_pruned").inc()
            return
        self.stats.dtw_computations += 1
        distance_pow = dtw_pow(
            values,
            self._query,
            self._config.rho,
            p=self._config.p,
            threshold_pow=threshold_pow,
        )
        if traced:
            self.tracer.metrics.counter("verify.dtw").inc()
            if distance_pow > threshold_pow:
                self.tracer.metrics.counter("verify.dtw_abandoned").inc()
        self.collector.offer_pow(distance_pow, sid, start)


@contextmanager
def recording(cls: type) -> Iterator[List[CandidateEvaluator]]:
    """Route engine queries through ``cls``; collect every instance."""
    made: List[CandidateEvaluator] = []

    class Recording(cls):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch.object(base, "CandidateEvaluator", Recording):
        yield made


def run(db, method, query, config, limit, cls):
    """One cold-cache query through evaluator ``cls``; also the pending bound."""
    budget: Optional[QueryBudget] = None
    token: Optional[CancellationToken] = None
    if limit is not None:
        kind, count = limit
        if kind == "candidates":
            budget = QueryBudget(max_candidates=count)
        else:
            token = CancellationToken(cancel_after_checks=count)
    control = ExecutionControl(budget=budget, token=token, tracer=db.tracer)
    with recording(cls) as made:
        db.reset_cache()
        result = db._engine(method, None).search(query, config, control=control)
    (evaluator,) = made
    return result, evaluator.pending_lower_bound_pow()


def outcome(result, pending_pow):
    """Everything the two drains must agree on, in comparable form."""
    return {
        "stats": {key: getattr(result.stats, key) for key in GOLDEN_STAT_KEYS},
        "checkpoints": result.stats.checkpoints,
        "distances": [repr(m.distance) for m in result.matches],
        "matches": [(m.sid, m.start) for m in result.matches],
        "partial": isinstance(result, PartialResult),
        "reason": getattr(result, "reason", None),
        "certificate": repr(getattr(result, "certificate", None)),
        "pending": repr(pending_pow),
    }


def assert_same_as_reference(db, method, query, config, limit=None):
    batched = outcome(*run(db, method, query, config, limit, CandidateEvaluator))
    reference = outcome(
        *run(db, method, query, config, limit, OneAtATimeEvaluator)
    )
    assert batched == reference
    return batched


def build_db(
    seed: int, buffer_fraction: float, p: float = 2.0, lengths=(700, 500)
):
    rng = np.random.default_rng(seed)
    db = SubsequenceDatabase(
        omega=8, features=4, buffer_fraction=buffer_fraction, p=p
    )
    for sid, length in enumerate(lengths):
        db.insert(sid, rng.standard_normal(length).cumsum())
    db.build(psm=True)
    return db, rng


def noisy_query(db, rng, length):
    sid = int(rng.integers(0, 2))
    start = int(rng.integers(0, db.store.meta(sid).length - length))
    stored = db.store.peek_subsequence(sid, start, length)
    return stored + 0.3 * rng.standard_normal(length)


def check_sweep_example(
    db, rng, method, length, normalize, k, rho, deferred_fraction, limit
):
    query = noisy_query(db, rng, length)
    config = EngineConfig(
        k=k,
        rho=min(rho, length - 1),
        deferred=True,
        deferred_fraction=deferred_fraction,
        normalize=normalize,
    )
    assert_same_as_reference(db, method, query, config, limit)


LIMITS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["candidates", "token"]), st.integers(0, 60)),
)
SWEEP_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@settings(max_examples=30, **SWEEP_SETTINGS)
@given(
    seed=st.integers(0, 10_000),
    method=st.sampled_from(["ru", "ru-cost", "hlmj", "hlmj-wg"]),
    normalize=st.booleans(),
    k=st.integers(1, 8),
    rho=st.integers(0, 24),
    buffer_fraction=st.sampled_from([0.05, 0.2, 1.0]),
    deferred_fraction=st.sampled_from([0.005, 0.05, 0.2, 1.0]),
    limit=LIMITS,
)
def test_batched_drain_replays_one_at_a_time(
    seed, method, normalize, k, rho, buffer_fraction, deferred_fraction, limit
):
    db, rng = build_db(seed, buffer_fraction)
    length = int(rng.integers(24, 65))
    check_sweep_example(
        db, rng, method, length, normalize, k, rho, deferred_fraction, limit
    )


@settings(max_examples=8, **SWEEP_SETTINGS)
@given(
    seed=st.integers(0, 10_000),
    normalize=st.booleans(),
    k=st.integers(1, 5),
    rho=st.integers(0, 12),
    buffer_fraction=st.sampled_from([0.05, 0.2, 1.0]),
    deferred_fraction=st.sampled_from([0.005, 0.05, 0.2]),
    limit=LIMITS,
)
def test_batched_drain_replays_one_at_a_time_psm(
    seed, normalize, k, rho, buffer_fraction, deferred_fraction, limit
):
    # PSM's join states grow steeply with data size and query windows,
    # so it gets a smaller database and shorter queries.
    db, rng = build_db(seed, buffer_fraction, lengths=(350, 250))
    length = int(rng.integers(15, 25))
    check_sweep_example(
        db, rng, "psm", length, normalize, k, rho, deferred_fraction, limit
    )


@pytest.fixture(scope="module")
def walk_db():
    db = SubsequenceDatabase(omega=16, features=4, buffer_fraction=0.05)
    db.insert(0, make_walk(3000, seed=11))
    db.insert(1, make_walk(2200, seed=12))
    db.build()
    return db


class TestBatchPath:
    """Fixed queries that are known to take the wavefront branch."""

    @pytest.mark.parametrize("method", ("ru", "ru-cost", "hlmj", "hlmj-wg"))
    @pytest.mark.parametrize("normalize", (False, True))
    def test_wide_band_matches_reference(self, walk_db, method, normalize):
        query = walk_db.store.peek_subsequence(0, 900, 96) + 0.2
        config = EngineConfig(
            k=5, rho=12, deferred=True, deferred_fraction=0.05,
            normalize=normalize,
        )
        got = assert_same_as_reference(walk_db, method, query, config)
        assert got["stats"]["deferred_flushes"] > 0

    @pytest.mark.parametrize("checks", (3, 11, 40))
    def test_interrupt_mid_flush_matches_reference(self, walk_db, checks):
        query = walk_db.store.peek_subsequence(1, 400, 96) + 0.2
        config = EngineConfig(
            k=5, rho=12, deferred=True, deferred_fraction=0.05
        )
        got = assert_same_as_reference(
            walk_db, "ru-cost", query, config, limit=("candidates", checks)
        )
        assert got["partial"]
        assert got["pending"] != repr(float("inf"))

    def test_wavefront_rule(self):
        # |Q| = 256 at the paper's rho = 5 %: a band of 25 cells needs
        # six lanes; |Q| = 128 (band 13) needs ten; one lane of a band
        # of 128 cells or more is the single-pair dispatch.
        assert not wavefront_pays(5, 256, 12)
        assert wavefront_pays(6, 256, 12)
        assert not wavefront_pays(9, 128, 6)
        assert wavefront_pays(10, 128, 6)
        assert wavefront_pays(1, 256, 64)
        assert not wavefront_pays(1, 256, 63)


def brute_distances(db, query, k, rho, p):
    return [m.distance for m in brute_force_topk(db.store, query, k, rho, p=p)]


@pytest.mark.parametrize("p", (1.0, 3.0))
@pytest.mark.parametrize("method", ("ru", "ru-cost", "hlmj", "psm"))
def test_non_euclidean_deferred_agrees_with_immediate(p, method):
    # For p != 2 the wavefront kernel's pow may differ from libm's by an
    # ULP, so the kernel contract is 1e-9 relative, not bit identity.
    db, rng = build_db(7, 0.2, p=p)
    query = noisy_query(db, rng, 24)
    rho = 6
    gold = brute_distances(db, query, 5, rho, p)
    answers = {}
    for deferred in (False, True):
        config = EngineConfig(
            k=5, rho=rho, p=p, deferred=deferred, deferred_fraction=0.5
        )
        db.reset_cache()
        result = db._engine(method, None).search(query, config)
        answers[deferred] = result
        assert [m.distance for m in result.matches] == pytest.approx(
            gold, rel=1e-9
        )
    assert [(m.sid, m.start) for m in answers[True].matches] == [
        (m.sid, m.start) for m in answers[False].matches
    ]


class TestTracingParity:
    @pytest.fixture(scope="class")
    def traced_db(self):
        tracer = Tracer(enabled=True)
        db = SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.05, tracer=tracer
        )
        db.insert(0, make_walk(3000, seed=11))
        db.insert(1, make_walk(2200, seed=12))
        db.build()
        return db

    @pytest.mark.parametrize("method", ("ru", "ru-cost", "hlmj", "hlmj-wg"))
    def test_spans_and_counters_per_candidate(self, traced_db, method):
        query = traced_db.store.peek_subsequence(0, 900, 96) + 0.2
        config = EngineConfig(
            k=5, rho=12, deferred=True, deferred_fraction=0.05
        )
        traced_db.tracer.reset()
        result, _ = run(
            traced_db, method, query, config, None, CandidateEvaluator
        )
        profile, stats = result.profile, result.stats
        assert profile.span_count("buffer.fetch") == stats.page_accesses
        assert profile.span_count("candidate.verify") == stats.candidates
        batches = [
            span
            for span in profile.span.iter_tree()
            if span.name == "verify.batch"
        ]
        assert batches, "the wavefront branch never ran"
        for span in batches:
            assert span.attrs["lanes"] >= 1
        counters = profile.metrics.counters
        assert counters["verify.dtw"] == stats.dtw_computations
        assert counters.get("verify.lb_keogh_pruned", 0) == (
            stats.pruned_by_lb_keogh
        )
        assert counters["deferred.drained"] == stats.candidates

    def test_abandoned_counter_matches_reference(self, traced_db):
        query = traced_db.store.peek_subsequence(1, 300, 96) + 0.2
        config = EngineConfig(
            k=3, rho=12, deferred=True, deferred_fraction=0.05
        )
        counts = []
        for cls in (CandidateEvaluator, OneAtATimeEvaluator):
            traced_db.tracer.reset()
            result, _ = run(traced_db, "ru-cost", query, config, None, cls)
            counters = result.profile.metrics.counters
            counts.append(
                (
                    counters.get("verify.dtw", 0),
                    counters.get("verify.dtw_abandoned", 0),
                    counters.get("verify.lb_keogh_pruned", 0),
                )
            )
        assert counts[0] == counts[1]

