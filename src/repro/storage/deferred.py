"""Deferred retrieval of candidate subsequences.

Han et al. [12] observed that index-driven ranked matching issues many
*random* subsequence reads, and proposed delaying them: requests are
accumulated in a small side buffer (0.5 % of the database in the paper's
experiments), then drained in storage order so the disk sees a
quasi-sequential sweep.  All "(D)" engine variants in the benchmarks use
this mechanism.

The buffer stores only request descriptors, never sequence values, so its
memory footprint is tiny — mirroring the paper's 8-byte-per-request
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

from repro.exceptions import ConfigurationError
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class CandidateRequest:
    """A delayed request for one candidate subsequence.

    Attributes
    ----------
    sid:
        Data sequence id.
    start:
        0-based start offset of the candidate subsequence.
    length:
        Candidate length (always ``Len(Q)`` in this system).
    lower_bound:
        The index-level lower bound that admitted the candidate; engines
        re-check it against the current ``delta_cur`` at drain time, since
        the threshold may have tightened while the request sat in the
        buffer.
    context:
        Opaque engine-specific payload (e.g. which subquery produced it).
    """

    sid: int
    start: int
    length: int
    lower_bound: float
    context: Any = None

    @property
    def sort_key(self) -> tuple:
        """Storage-order key: drain requests file-sequentially."""
        return (self.sid, self.start)


@dataclass
class DeferredStats:
    """Counters describing how the deferred buffer was used."""

    requests_added: int = 0
    flushes: int = 0
    requests_drained: int = 0
    requests_skipped: int = 0


class DeferredRetrievalBuffer:
    """Accumulate candidate requests and drain them in storage order.

    Parameters
    ----------
    capacity:
        Maximum number of pending requests before :meth:`is_full` turns
        true.  Use :meth:`capacity_for_database` to derive the paper's
        0.5 %-of-database budget.
    """

    #: Bytes the paper budgets per delayed request descriptor.
    REQUEST_BYTES = 16

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"deferred buffer capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._pending: List[CandidateRequest] = []
        self.stats = DeferredStats()
        #: Observability hook (set by the owning evaluator); records
        #: drop/skip decisions that the span around the drain loop —
        #: which lives in the evaluator, because :meth:`drain` is lazy —
        #: cannot see item-by-item.
        self.tracer = NULL_TRACER

    @classmethod
    def capacity_for_database(
        cls, database_bytes: int, fraction: float = 0.005
    ) -> int:
        """Request capacity from a database size and memory fraction.

        The paper allocates memory of only 0.5 % of the database size for
        delayed requests; each descriptor costs :attr:`REQUEST_BYTES`.
        """
        if not 0 < fraction <= 1:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        return max(1, int(database_bytes * fraction) // cls.REQUEST_BYTES)

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def is_full(self) -> bool:
        """True when the buffer must be flushed before adding more."""
        return len(self._pending) >= self._capacity

    def add(self, request: CandidateRequest) -> None:
        """Queue one request.  Callers flush when :attr:`is_full`."""
        self._pending.append(request)
        self.stats.requests_added += 1

    def min_pending_lower_bound(self) -> float:
        """Smallest admitted lower bound among pending requests.

        ``inf`` when empty.  This is the deferred buffer's contribution
        to a partial result's exactness certificate: no unretrieved
        deferred candidate can beat this bound.
        """
        if not self._pending:
            return float("inf")
        return min(request.lower_bound for request in self._pending)

    def drain(
        self,
        threshold: Optional[float] = None,
        checkpoint: Optional[Callable[[], None]] = None,
    ) -> Iterator[CandidateRequest]:
        """Yield pending requests in storage order and empty the buffer.

        Parameters
        ----------
        threshold:
            If given, requests whose recorded ``lower_bound`` already
            exceeds it are dropped (counted in ``requests_skipped``) —
            the candidate was admitted under a looser ``delta_cur`` than
            the current one, so retrieving it cannot improve the top-k.
        checkpoint:
            Called before each request is handed out.  When it raises (a
            budget, deadline or cancellation interrupt), that request and
            every later one go back into the buffer before the exception
            propagates, so their lower bounds still count toward the
            exactness certificate.  A request is counted in
            ``requests_drained`` only when it is handed out, so one that
            is put back and drained by a later flush counts once.
        """
        pending, self._pending = self._pending, []
        self.stats.flushes += 1
        pending.sort(key=lambda request: request.sort_key)
        traced = self.tracer.enabled
        survivors: List[CandidateRequest] = []
        for request in pending:
            if threshold is not None and request.lower_bound > threshold:
                self.stats.requests_skipped += 1
                if traced:
                    self.tracer.metrics.counter("deferred.skipped").inc()
                continue
            survivors.append(request)
        if traced:
            self.tracer.metrics.histogram("deferred.batch_size").observe(
                len(survivors)
            )
        for position, request in enumerate(survivors):
            if checkpoint is not None:
                try:
                    checkpoint()
                except BaseException:
                    self._pending.extend(survivors[position:])
                    raise
            self.stats.requests_drained += 1
            if traced:
                self.tracer.metrics.counter("deferred.drained").inc()
            yield request
