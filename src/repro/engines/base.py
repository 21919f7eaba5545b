"""Shared engine plumbing.

:class:`CandidateEvaluator` centralises everything that happens once an
engine decides a candidate subsequence is worth looking at:

* duplicate suppression (a candidate is reachable through many matching
  window pairs — Section 2 of the paper);
* index-level lower-bound pruning against ``delta_cur``;
* the deferred retrieval path ("(D)" variants) versus immediate
  retrieval;
* the retrieval pipeline itself: fault candidate pages through the
  buffer pool, cascade ``LB_Keogh`` then early-abandoning ``DTW_rho``,
  and offer survivors to the shared top-k collector.  A deferred flush
  retrieves all its candidates first, computes their DTW values in one
  wavefront pass, then replays the cascade in storage order, so its
  decisions are the ones a candidate-at-a-time drain would make.

Keeping this in one place guarantees that all five engines measure
candidates, page accesses, and prunes identically, so the benchmark
comparisons test *scheduling and bounds*, not bookkeeping differences.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.control import ExecutionControl, certificate_from_pow
from repro.core.distance import dtw_pow, dtw_pow_batch, wavefront_pays
from repro.core.envelope import Envelope
from repro.core.lower_bounds import lb_keogh_pow
from repro.core.metrics import QueryStats, StatsRecorder
from repro.core.normalize import NormalizationContext, znormalize
from repro.core.results import Match, TopKCollector
from repro.core.windows import QueryWindowSet
from repro.exceptions import (
    ConfigurationError,
    ExecutionInterrupted,
    StorageError,
)
from repro.index.builder import DualMatchIndex
from repro.obs import QueryProfile
from repro.obs.tracer import Span
from repro.storage.deferred import CandidateRequest, DeferredRetrievalBuffer

#: Bytes per stored value, used to express the deferred budget as a
#: fraction of database size (the paper uses 0.5 %).
_VALUE_BYTES = 8


@dataclass(frozen=True)
class EngineConfig:
    """Search-time knobs shared by every engine.

    Attributes
    ----------
    k:
        Number of results.
    rho:
        Warping width.  The benchmarks use the paper's 5 % of ``Len(Q)``.
    deferred:
        Enable the deferred retrieval mechanism (the "(D)" variants).
    deferred_fraction:
        Memory budget for delayed requests as a fraction of database
        bytes (paper: 0.005).
    p:
        Norm order.
    on_fault:
        Storage-fault policy.  ``"raise"`` (default) propagates any
        :class:`~repro.exceptions.StorageError` that survives the buffer
        pool's retries — exactness is preserved or the query fails.
        ``"degrade"`` skips unreadable candidates and index subtrees,
        still returns a well-formed top-k over everything readable, and
        flags the result ``degraded=True`` with a per-query
        :class:`FaultReport` — availability over exactness.
    normalize:
        Match in z-normalized space (amplitude/offset-invariant): the
        query and every candidate window are normalized to zero mean and
        unit variance before bounding and DTW, using the online
        rolling-stats kernel of :mod:`repro.core.normalize` and the
        ``*_znorm_*`` members of the RS005 bound chain.  ``False`` (the
        default) preserves the raw paper semantics bit for bit.
    """

    k: int
    rho: int
    deferred: bool = False
    deferred_fraction: float = 0.005
    p: float = 2.0
    on_fault: str = "raise"
    normalize: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.rho < 0:
            raise ConfigurationError(f"rho must be >= 0, got {self.rho}")
        if not 0 < self.deferred_fraction <= 1:
            raise ConfigurationError(
                f"deferred_fraction must be in (0, 1], got "
                f"{self.deferred_fraction}"
            )
        if self.on_fault not in ("raise", "degrade"):
            raise ConfigurationError(
                f"on_fault must be 'raise' or 'degrade', got "
                f"{self.on_fault!r}"
            )


#: Cap on recorded fault events so a sick disk cannot balloon a report.
_MAX_FAULT_EVENTS = 64


@dataclass(frozen=True)
class FaultEvent:
    """One storage fault tolerated during a degraded query."""

    error: str
    detail: str
    page_id: Optional[int] = None
    candidate: Optional[Tuple[int, int]] = None


@dataclass
class FaultReport:
    """Everything a degraded query skipped, for the caller to audit."""

    events: List[FaultEvent] = field(default_factory=list)
    #: Events beyond the recording cap (counted but not itemised).
    suppressed: int = 0

    def __bool__(self) -> bool:
        return bool(self.events) or self.suppressed > 0

    @property
    def total(self) -> int:
        return len(self.events) + self.suppressed

    def record(
        self,
        error: StorageError,
        page_id: Optional[int] = None,
        candidate: Optional[Tuple[int, int]] = None,
    ) -> None:
        if len(self.events) >= _MAX_FAULT_EVENTS:
            self.suppressed += 1
            return
        self.events.append(
            FaultEvent(
                error=type(error).__name__,
                detail=str(error),
                page_id=page_id,
                candidate=candidate,
            )
        )

    @property
    def failed_pages(self) -> List[int]:
        """Distinct page ids implicated, in first-seen order."""
        seen: List[int] = []
        for event in self.events:
            if event.page_id is not None and event.page_id not in seen:
                seen.append(event.page_id)
        return seen

    @property
    def skipped_candidates(self) -> List[Tuple[int, int]]:
        """``(sid, start)`` pairs dropped from consideration."""
        return [
            event.candidate
            for event in self.events
            if event.candidate is not None
        ]


@dataclass
class SearchResult:
    """Matches plus the per-query counters the paper reports."""

    matches: List[Match]
    stats: QueryStats
    #: True when faults forced the engine to skip work under
    #: ``on_fault="degrade"`` — the top-k is well-formed but may miss
    #: true results that lived on unreadable pages.
    degraded: bool = False
    #: Per-query audit of tolerated faults (``None`` on healthy runs).
    fault_report: Optional[FaultReport] = None
    #: Span tree + metrics delta for this query — populated only when
    #: the bound tracer was enabled (``None`` otherwise, at zero cost).
    profile: Optional[QueryProfile] = None

    @property
    def distances(self) -> List[float]:
        return [match.distance for match in self.matches]


@dataclass
class PartialResult(SearchResult):
    """A query cut short by a budget, deadline, or cancellation.

    The matches are the best-k-so-far over everything *examined*.  The
    :attr:`certificate` states exactly what exactness was given up: it
    is a lower bound on the true distance of every candidate the engine
    did **not** examine.  Consequences a caller can rely on:

    * every returned match with ``distance < certificate`` provably
      belongs to the exact top-k (no unexamined candidate can displace
      it);
    * the exact top-k can differ from the returned list only at
      distances ``>= certificate``;
    * an infinite certificate means nothing examinable remained — the
      partial result is in fact exact.

    This is the anytime form of the paper's Section 3 no-false-dismissal
    contract: instead of silently dropping candidates, the early exit
    reports the tightest bound under which drops may have occurred.
    """

    #: Why the query stopped: ``"cancelled"``, ``"deadline"``,
    #: ``"budget:pages"``, or ``"budget:candidates"``.
    reason: str = ""
    #: Lower bound (distance, not p-th power) on any unexamined
    #: candidate's true distance.  ``inf`` when nothing was left.
    certificate: float = math.inf

    @property
    def exact(self) -> bool:
        """Whether the interrupt provably lost nothing."""
        return math.isinf(self.certificate)


class _Candidate(NamedTuple):
    """One retrieved candidate awaiting the LB_Keogh -> DTW cascade."""

    sid: int
    start: int
    values: np.ndarray
    keogh_pow: float


class CandidateEvaluator:
    """Retrieval, pruning, and top-k maintenance for one query run."""

    def __init__(
        self,
        index: DualMatchIndex,
        envelope: Envelope,
        query: np.ndarray,
        config: EngineConfig,
        stats: QueryStats,
        control: Optional[ExecutionControl] = None,
        norm: Optional[NormalizationContext] = None,
    ) -> None:
        self._index = index
        self._envelope = envelope
        self._query = query
        self._config = config
        self.stats = stats
        #: Per-query candidate statistics when matching in z-normalized
        #: space (``None`` on the raw path).  Engines read this to build
        #: their per-window :class:`~repro.core.normalize.WindowNormalizer`
        #: adapters so bounds and verification share the same stats.
        self.norm = norm
        #: The query's budget/deadline/cancellation checkpoints.  Engines
        #: bind this as their local ``budget`` and checkpoint at every
        #: traversal-loop boundary (lint rule RS007).  A default
        #: instance has no limits and never interrupts.
        self.control = control if control is not None else ExecutionControl()
        #: The query's tracer (disabled singleton unless the caller
        #: wired one through the control plane).
        self.tracer = self.control.tracer
        self.collector = TopKCollector(config.k, p=config.p)
        self.fault_report = FaultReport()
        self._seen: Set[Tuple[int, int]] = set()
        self._deferred: Optional[DeferredRetrievalBuffer] = None
        if config.deferred:
            database_bytes = index.store.total_values * _VALUE_BYTES
            self._deferred = DeferredRetrievalBuffer(
                DeferredRetrievalBuffer.capacity_for_database(
                    database_bytes, config.deferred_fraction
                )
            )
            self._deferred.tracer = self.tracer

    @property
    def threshold_pow(self) -> float:
        """``delta_cur ** p`` — the current pruning threshold."""
        return self.collector.threshold_pow

    @property
    def query_length(self) -> int:
        return int(self._query.size)

    @property
    def degrades(self) -> bool:
        """Whether this run tolerates storage faults by skipping work."""
        return self._config.on_fault == "degrade"

    def fault(
        self,
        error: StorageError,
        page_id: Optional[int] = None,
        candidate: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Handle one storage fault according to the ``on_fault`` policy.

        Re-raises under ``"raise"`` (the default — exactness preserved);
        records and returns under ``"degrade"`` so the caller can skip
        the affected candidate or subtree and continue.
        """
        if not self.degrades:
            raise error
        self.stats.faults_skipped += 1
        self.fault_report.record(error, page_id=page_id, candidate=candidate)

    def already_seen(self, sid: int, start: int) -> bool:
        """Whether a candidate was already submitted (no side effects)."""
        return (sid, start) in self._seen

    def submit(
        self, sid: int, start: int, lower_bound_pow: float
    ) -> Optional[float]:
        """Route one candidate: dedupe, prune, defer or evaluate.

        ``lower_bound_pow`` is the index-level lower bound (p-th power)
        that admitted the candidate — MDMWP for HLMJ, MSEQ-distance for
        the ranked-union engines, the join-state score for PSM.

        Returns the candidate's DTW distance (p-th power) when it was
        evaluated immediately and survived the LB_Keogh cascade; ``None``
        when it was a duplicate, pruned, deferred, or LB_Keogh-killed.
        The ``Φ`` operator uses the returned distance to feed its local
        candidate queue (``candMinQ_Φ`` in the paper).
        """
        key = (sid, start)
        if key in self._seen:
            self.stats.duplicates_suppressed += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("submit.duplicates").inc()
            return None
        self._seen.add(key)
        if lower_bound_pow > self.threshold_pow:
            self.stats.pruned_by_lower_bound += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("submit.lb_pruned").inc()
            return None
        if self._deferred is not None:
            self._deferred.add(
                CandidateRequest(
                    sid=sid,
                    start=start,
                    length=self.query_length,
                    lower_bound=lower_bound_pow,
                )
            )
            if self._deferred.is_full:
                self.flush()
            return None
        return self._evaluate(sid, start)

    def _evaluate(self, sid: int, start: int) -> Optional[float]:
        """Retrieve one candidate and run the LB_Keogh -> DTW cascade."""
        if self.tracer.enabled:
            with self.tracer.span("candidate.verify", sid=sid, start=start):
                return self._evaluate_now(sid, start)
        return self._evaluate_now(sid, start)

    def _evaluate_now(self, sid: int, start: int) -> Optional[float]:
        candidate = self._retrieve(sid, start)
        if candidate is None:
            return None
        return self._cascade(candidate)

    def _retrieve(self, sid: int, start: int) -> Optional[_Candidate]:
        """Fault one candidate in and price its LB_Keogh bound.

        Returns ``None`` when a storage fault was tolerated under
        ``on_fault="degrade"``.
        """
        try:
            values = self._index.store.get_subsequence(
                sid, start, self.query_length
            )
        except StorageError as error:
            self.fault(error, candidate=(sid, start))
            return None
        self.stats.candidates += 1
        if self.norm is not None:
            # One transform serves both LB_Keogh and DTW below — the
            # arithmetic of lb_keogh_znorm_pow, applied once, so bound
            # and verification see the identical normalized array.
            mu, sigma = self.norm.stats(sid, start)
            values = znormalize(values, mu, sigma)
        keogh_pow = lb_keogh_pow(self._envelope, values, self._config.p)
        return _Candidate(sid, start, values, keogh_pow)

    def _cascade(
        self, candidate: _Candidate, distance_pow: Optional[float] = None
    ) -> Optional[float]:
        """The paper's per-candidate decisions against the live threshold.

        ``distance_pow`` is the candidate's DTW value when a batch pass
        already computed it; otherwise the scalar kernel runs here,
        early-abandoning at the live threshold.
        """
        threshold_pow = self.threshold_pow
        self.stats.lb_keogh_computations += 1
        if candidate.keogh_pow > threshold_pow:
            self.stats.pruned_by_lb_keogh += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("verify.lb_keogh_pruned").inc()
            return None
        self.stats.dtw_computations += 1
        if distance_pow is None:
            distance_pow = dtw_pow(
                candidate.values,
                self._query,
                self._config.rho,
                p=self._config.p,
                threshold_pow=threshold_pow,
            )
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("verify.dtw").inc()
            # The early-abandoning kernel reports "above threshold"
            # rather than an exact distance once it abandons; that
            # outcome is the paper's DTW saving, so count it.
            if distance_pow > threshold_pow:
                metrics.counter("verify.dtw_abandoned").inc()
        self.collector.offer_pow(distance_pow, candidate.sid, candidate.start)
        return distance_pow

    def flush(self) -> None:
        """Drain the deferred buffer (storage order, threshold re-check).

        Retrieves every surviving request first, checkpointing between
        retrievals, then verifies the whole flush at once (see
        :meth:`_verify_flush`).  When an interrupt lands mid-flush, the
        candidates already retrieved are verified and the not-yet-
        retrieved requests are requeued before the signal propagates, so
        their lower bounds still feed :meth:`pending_lower_bound_pow`
        (and thus the certificate).
        """
        if self._deferred is None or len(self._deferred) == 0:
            return
        self.stats.deferred_flushes += 1
        if self.tracer.enabled:
            with self.tracer.span("deferred.drain", pending=len(self._deferred)):
                self._drain_now()
        else:
            self._drain_now()

    def _drain_now(self) -> None:
        assert self._deferred is not None
        traced = self.tracer.enabled
        fetched: List[_Candidate] = []
        try:
            for request in self._deferred.drain(
                threshold=self.threshold_pow, checkpoint=self.control.checkpoint
            ):
                if traced:
                    with self.tracer.span(
                        "candidate.verify", sid=request.sid, start=request.start
                    ):
                        candidate = self._retrieve(request.sid, request.start)
                else:
                    candidate = self._retrieve(request.sid, request.start)
                if candidate is not None:
                    fetched.append(candidate)
        finally:
            self._verify_flush(fetched)

    def _verify_flush(self, fetched: List[_Candidate]) -> None:
        """Verify retrieved candidates, replaying the cascade in order.

        The threshold only tightens while a flush is verified, so the
        candidates whose LB_Keogh bound passes it *now* are a superset
        of those the one-at-a-time cascade would run DTW on.  When
        :func:`~repro.core.distance.wavefront_pays` for them, one
        wavefront pass computes their DTW values at the current
        threshold.  A value at or below any later threshold was never
        abandoned and equals the scalar kernel's (bit for bit at p = 2,
        to the kernel contract's 1e-9 relative otherwise); a larger one
        (exact or abandoned) is rejected by the collector either way.  The
        replay then makes, counts and offers every decision in storage
        order against the live threshold, exactly as retrieving and
        verifying one candidate at a time would.
        """
        threshold_pow = self.threshold_pow
        lanes = [
            position
            for position, candidate in enumerate(fetched)
            if candidate.keogh_pow <= threshold_pow
        ]
        batched: Dict[int, float] = {}
        if wavefront_pays(len(lanes), self.query_length, self._config.rho):
            batch = np.stack([fetched[position].values for position in lanes])
            with self.tracer.span("verify.batch", lanes=len(lanes)):
                values = dtw_pow_batch(
                    batch,
                    self._query,
                    self._config.rho,
                    p=self._config.p,
                    threshold_pow=threshold_pow,
                )
            batched = dict(zip(lanes, values.tolist()))
        for position, candidate in enumerate(fetched):
            self._cascade(candidate, batched.get(position))

    def pending_lower_bound_pow(self) -> float:
        """Smallest lower bound (p-th power) among deferred requests.

        ``inf`` when nothing is pending.  Folded into the exactness
        certificate: deferred candidates were admitted but never
        retrieved, so they count as unexamined work.
        """
        if self._deferred is None:
            return math.inf
        return self._deferred.min_pending_lower_bound()

    def finalize(self) -> None:
        """Flush any remaining deferred requests before returning results."""
        self.flush()


class Engine(abc.ABC):
    """Base class: owns the index and the search template.

    Subclasses implement :meth:`_run`, which drives their traversal and
    submits candidates through the provided evaluator.
    """

    #: Short name used in benchmark tables ("HLMJ", "RU-COST", ...).
    name: str = "engine"

    def __init__(self, index: DualMatchIndex) -> None:
        self.index = index

    def search(
        self,
        query: Sequence[float],
        config: EngineConfig,
        control: Optional[ExecutionControl] = None,
    ) -> SearchResult:
        """Run one top-k query and return matches plus counters.

        With a limited ``control``, an interrupt at any cooperative
        checkpoint yields a :class:`PartialResult` (best-k-so-far plus
        an exactness certificate) instead of an exception.

        When the control plane carries an enabled tracer, the whole
        query runs under an ``engine.search`` root span and the result
        carries a :class:`~repro.obs.profile.QueryProfile`; otherwise
        the traced wrapper is skipped entirely and behaviour (every
        counter included) is identical to the un-instrumented engine.
        """
        if control is None:
            control = ExecutionControl()
        tracer = control.tracer
        if not tracer.enabled:
            return self._execute(query, config, control)
        metrics_before = tracer.metrics.snapshot()
        with tracer.span(
            "engine.search", engine=self.name, k=config.k, rho=config.rho
        ) as root:
            result = self._execute(query, config, control)
        if isinstance(root, Span):
            result.profile = QueryProfile(
                span=root,
                metrics=tracer.metrics.snapshot().delta(metrics_before),
                stats=result.stats,
                fault_report=result.fault_report,
            )
        return result

    def _execute(
        self,
        query: Sequence[float],
        config: EngineConfig,
        control: ExecutionControl,
    ) -> SearchResult:
        window_set = QueryWindowSet.from_query(
            query,
            omega=self.index.omega,
            features=self.index.features,
            rho=config.rho,
            p=config.p,
            data_stride=getattr(self.index, "data_stride", None),
            normalize=config.normalize,
        )
        # Candidate stats are priced before I/O accounting starts: the
        # context reads through the zero-copy peek path, so NUM_IO still
        # counts exactly the pages the engine itself faults in.
        norm: Optional[NormalizationContext] = None
        if config.normalize:
            norm = NormalizationContext(
                self.index.store, window_set.length
            )
        recorder = StatsRecorder(
            self.index.store.pager, self.index.store.buffer
        ).start()
        pager_stats = self.index.store.pager.stats
        reads_at_start = pager_stats.physical_reads
        control.bind(
            recorder.stats,
            lambda: pager_stats.physical_reads - reads_at_start,
        )
        evaluator = CandidateEvaluator(
            index=self.index,
            envelope=window_set.envelope,
            query=window_set.query,
            config=config,
            stats=recorder.stats,
            control=control,
            norm=norm,
        )
        tracer = control.tracer
        interrupt: Optional[ExecutionInterrupted] = None
        try:
            if tracer.enabled:
                with tracer.span("engine.run"):
                    self._run(window_set, evaluator, config)
                with tracer.span("engine.finalize"):
                    evaluator.finalize()
            else:
                self._run(window_set, evaluator, config)
                evaluator.finalize()
        except ExecutionInterrupted as signal:
            interrupt = signal
        stats = recorder.finish()
        stats.checkpoints = control.checkpoints
        report = evaluator.fault_report
        matches = evaluator.collector.matches(window_set.length)
        if interrupt is None:
            return SearchResult(
                matches=matches,
                stats=stats,
                degraded=bool(report),
                fault_report=report if report else None,
            )
        stats.interrupted = 1
        # Everything *unexamined* is bounded below by the engine's last
        # reported frontier; deferred-but-unretrieved candidates are
        # bounded by their admitted lower bounds.  The min of the two is
        # the tightest sound certificate.
        certificate_pow = min(
            control.frontier_pow, evaluator.pending_lower_bound_pow()
        )
        return PartialResult(
            matches=matches,
            stats=stats,
            degraded=bool(report),
            fault_report=report if report else None,
            reason=interrupt.reason,
            certificate=certificate_from_pow(certificate_pow, config.p),
        )

    @abc.abstractmethod
    def _run(
        self,
        window_set: QueryWindowSet,
        evaluator: CandidateEvaluator,
        config: EngineConfig,
    ) -> None:
        """Traverse the index / data and submit candidates."""
