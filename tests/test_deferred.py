"""Unit tests for the deferred retrieval buffer (repro.storage.deferred)."""

import pytest

from repro import SubsequenceDatabase
from repro.control import ExecutionControl, QueryBudget
from repro.engines.base import CandidateEvaluator, EngineConfig, PartialResult
from repro.exceptions import ConfigurationError
from repro.obs import Tracer
from repro.storage.deferred import CandidateRequest, DeferredRetrievalBuffer

from tests.conftest import make_walk, query_from
from tests.test_deferred_verify import recording


def request(sid, start, lb=0.0):
    return CandidateRequest(sid=sid, start=start, length=4, lower_bound=lb)


class TestCapacity:
    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            DeferredRetrievalBuffer(0)

    def test_is_full(self):
        buf = DeferredRetrievalBuffer(2)
        buf.add(request(0, 0))
        assert not buf.is_full
        buf.add(request(0, 1))
        assert buf.is_full

    def test_capacity_for_database_follows_half_percent_rule(self):
        # 1 MB database at 0.5% -> 5243 bytes -> 327 sixteen-byte slots.
        assert DeferredRetrievalBuffer.capacity_for_database(2**20) == 327

    def test_capacity_floor_is_one(self):
        assert DeferredRetrievalBuffer.capacity_for_database(100) == 1

    def test_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            DeferredRetrievalBuffer.capacity_for_database(1000, fraction=0)


class TestDrain:
    def test_storage_order(self):
        buf = DeferredRetrievalBuffer(10)
        buf.add(request(1, 50))
        buf.add(request(0, 99))
        buf.add(request(0, 3))
        buf.add(request(1, 2))
        drained = [(r.sid, r.start) for r in buf.drain()]
        assert drained == [(0, 3), (0, 99), (1, 2), (1, 50)]

    def test_drain_empties_buffer(self):
        buf = DeferredRetrievalBuffer(10)
        buf.add(request(0, 0))
        list(buf.drain())
        assert len(buf) == 0

    def test_threshold_skips_stale_requests(self):
        buf = DeferredRetrievalBuffer(10)
        buf.add(request(0, 0, lb=1.0))
        buf.add(request(0, 1, lb=9.0))
        drained = list(buf.drain(threshold=5.0))
        assert [r.start for r in drained] == [0]
        assert buf.stats.requests_skipped == 1

    def test_no_threshold_drains_everything(self):
        buf = DeferredRetrievalBuffer(10)
        buf.add(request(0, 0, lb=100.0))
        assert len(list(buf.drain())) == 1

    def test_stats_accumulate(self):
        buf = DeferredRetrievalBuffer(10)
        buf.add(request(0, 0))
        buf.add(request(0, 1))
        list(buf.drain())
        buf.add(request(0, 2))
        list(buf.drain())
        assert buf.stats.requests_added == 3
        assert buf.stats.flushes == 2
        assert buf.stats.requests_drained == 3


def test_request_sort_key():
    assert request(2, 5).sort_key == (2, 5)


class Interrupt(Exception):
    pass


def checkpoint_failing_at(call):
    """A checkpoint that raises on its ``call``-th invocation (1-based)."""
    calls = []

    def checkpoint():
        calls.append(None)
        if len(calls) == call:
            raise Interrupt()

    return checkpoint


class TestInterruptedDrain:
    def test_checkpoint_interrupt_requeues_the_rest(self):
        buf = DeferredRetrievalBuffer(10)
        for start in (4, 2, 3, 1, 0):
            buf.add(request(0, start, lb=float(start)))
        handed = []
        with pytest.raises(Interrupt):
            for req in buf.drain(checkpoint=checkpoint_failing_at(3)):
                handed.append(req.start)
        assert handed == [0, 1]
        assert sorted(r.start for r in buf._pending) == [2, 3, 4]
        assert buf.min_pending_lower_bound() == 2.0
        assert buf.stats.requests_drained == 2

    def test_requeued_requests_count_once(self):
        buf = DeferredRetrievalBuffer(10)
        for start in range(6):
            buf.add(request(0, start, lb=float(start)))
        with pytest.raises(Interrupt):
            list(buf.drain(checkpoint=checkpoint_failing_at(2)))
        with pytest.raises(Interrupt):
            list(buf.drain(checkpoint=checkpoint_failing_at(1)))
        assert [r.start for r in buf.drain(threshold=4.0)] == [1, 2, 3, 4]
        stats = buf.stats
        assert stats.requests_drained == 5
        assert stats.requests_skipped == 1
        assert stats.requests_added == (
            stats.requests_drained + stats.requests_skipped + len(buf)
        )


class TestCandidateBudgetMidDrain:
    """A ``max_candidates`` budget that trips inside a deferred flush."""

    @pytest.fixture()
    def traced_db(self):
        tracer = Tracer(enabled=True)
        db = SubsequenceDatabase(
            omega=16, features=4, buffer_fraction=0.1, tracer=tracer
        )
        db.insert(0, make_walk(3000, seed=11))
        db.insert(1, make_walk(2200, seed=12))
        db.build()
        return db

    def test_drained_counts_each_request_once(self, traced_db):
        query = query_from(traced_db, 640, 48)
        config = EngineConfig(
            k=5, rho=2, deferred=True, deferred_fraction=0.05
        )
        control = ExecutionControl(
            budget=QueryBudget(max_candidates=20), tracer=traced_db.tracer
        )
        with recording(CandidateEvaluator) as made:
            result = traced_db._engine("ru-cost", None).search(
                query, config, control=control
            )
        assert isinstance(result, PartialResult)
        assert result.reason == "budget:candidates"
        (evaluator,) = made
        buffered = evaluator._deferred
        # The trip landed mid-flush: requests were put back.
        assert len(buffered) > 0
        counters = result.profile.metrics.counters
        assert counters["deferred.drained"] == result.stats.candidates
        assert buffered.stats.requests_drained == result.stats.candidates
        # Flushing the requeued requests later counts each of them once.
        evaluator.control.budget = None
        evaluator.flush()
        stats = buffered.stats
        assert len(buffered) == 0
        assert stats.requests_added == (
            stats.requests_drained + stats.requests_skipped
        )
        assert (
            traced_db.tracer.metrics.counter("deferred.drained").value
            == stats.requests_drained
        )
