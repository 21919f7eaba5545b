"""Dynamic time warping under the Sakoe–Chiba band (Eq. 1 of the paper).

All internal comparisons in the library happen in *p-th-power space*
(:func:`dtw_pow`, and the ``*_pow`` lower bounds), because the pruning
logic constantly sums window-level distances; taking roots only at the API
boundary keeps the lower-bound chain exact and avoids needless ``pow``
round trips.  :func:`dtw_distance` is the user-facing rooted form.

Two kernels implement the same recurrence:

* a scalar row-by-row DP, fastest for one pair under a narrow band
  (immediate retrieval verifies one candidate at a time, so in the
  paper's parameter range it lands here);
* an **anti-diagonal (wavefront) kernel**: cells on one anti-diagonal
  ``i + j = d`` have no mutual dependencies, so a whole diagonal is
  computed with vectorized NumPy ops.  :func:`dtw_pow_batch` runs the
  wavefront over a *batch* of candidate sequences against one query,
  amortising per-diagonal overhead across the batch.  Deferred
  retrieval verifies each storage-ordered flush this way, and the
  ``repro bench`` kernel suite measures it.

:func:`wavefront_pays` is the one rule that picks between them, for a
single pair and for a batch alike.

Both kernels evaluate each DP cell with the identical float64 operations
(``cost + min(three neighbours)``), so for the default ``p == 2`` norm
(cost is ``gap * gap``) their outputs are bit-for-bit equal.  For other
``p`` the per-cell cost goes through ``pow``, where NumPy's vectorized
implementation may differ from libm by 1 ULP, so kernels agree to within
1e-9 relative instead; ``tests/test_kernel_conformance.py`` enforces
both contracts against the scalar oracle in :mod:`repro.core.reference`.

The implementation supports *early abandoning*: once no warping path can
finish below a caller-supplied threshold, the computation stops and
returns ``inf``.  The scalar kernel abandons when every cell of a DP row
exceeds the threshold; the wavefront kernel abandons a batch lane when
every cell of two *consecutive* anti-diagonals exceeds it (every
monotone path crosses at least one of any two consecutive
anti-diagonals, so both rules are sound).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import QueryError

_INF = math.inf

#: Minimum DP cells per wavefront step — batch lanes times the
#: Sakoe–Chiba band width — before the wavefront kernel beats running
#: the scalar loop once per lane.  Below this, per-diagonal NumPy call
#: overhead dominates the handful of cells it vectorises; above it, the
#: wavefront wins and keeps winning as lanes or band grow.  Both
#: kernels are bit-for-bit identical (p = 2), so the dispatch affects
#: speed only.
_WAVEFRONT_MIN_CELLS = 128


def wavefront_pays(lanes: int, length: int, rho: int) -> bool:
    """Whether one wavefront pass beats ``lanes`` scalar DTW calls.

    ``length`` is the candidate length and ``rho`` the warping width;
    the band holds ``min(2 * rho + 1, length)`` cells per DP row.  With
    one lane this is the single-pair dispatch of :func:`dtw_pow`.
    """
    return lanes * min(2 * rho + 1, length) >= _WAVEFRONT_MIN_CELLS


def _as_list(values: Sequence[float]) -> list:
    """Plain-float list view; scalar Python arithmetic beats numpy here.

    ``tolist()`` / ``float()`` upcast exactly, so float32 (or integer)
    inputs accumulate in float64 like everything else.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return values.tolist()
        return [float(v) for v in values.tolist()]
    return [float(v) for v in values]


def _reject_nan(array: np.ndarray, label: str) -> None:
    """NaN poisons every DP comparison silently; fail loudly instead."""
    if np.isnan(array).any():
        raise QueryError(f"{label} contains NaN")


def lp_distance(a: Sequence[float], b: Sequence[float], p: float = 2.0) -> float:
    """The L_p distance between equal-length sequences.

    ``DTW_rho`` degenerates to this when ``rho == 0``.
    """
    array_a = np.asarray(a, dtype=np.float64)
    array_b = np.asarray(b, dtype=np.float64)
    if array_a.shape != array_b.shape:
        raise QueryError(
            f"L_p distance needs equal lengths, got {array_a.shape} vs "
            f"{array_b.shape}"
        )
    gaps = np.abs(array_a - array_b)
    # Exact dispatch on the user-supplied norm order, not a computed float.
    if p == 2.0:  # repro: ignore[RS003]
        return float(math.sqrt(float(np.dot(gaps, gaps))))
    return float(np.sum(gaps**p) ** (1.0 / p))


def _dtw_pow_scalar(
    ss: list,
    qs: list,
    rho: int,
    p: float,
    threshold_pow: float,
) -> float:
    """Row-by-row banded DP over plain Python floats (float64)."""
    n = len(qs)
    m = len(ss)
    # Exact dispatch on the user-supplied norm order, not a computed float.
    squared = p == 2.0  # repro: ignore[RS003]

    # prev[j] holds row i-1 of the DP matrix; positions outside the band
    # stay infinite.  Row i covers data columns [i - rho, i + rho].
    prev = [_INF] * m
    for i in range(n):
        lo = i - rho
        if lo < 0:
            lo = 0
        hi = i + rho
        if hi >= m:
            hi = m - 1
        cur = [_INF] * m
        qi = qs[i]
        row_min = _INF
        left = _INF  # cur[j - 1], the within-row dependency
        for j in range(lo, hi + 1):
            gap = ss[j] - qi
            if gap < 0.0:
                gap = -gap
            cost = gap * gap if squared else gap**p
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = prev[j]  # vertical move
                diag = prev[j - 1] if j > 0 else _INF
                if diag < best:
                    best = diag
                if left < best:
                    best = left
            value = cost + best
            cur[j] = value
            left = value
            if value < row_min:
                row_min = value
        if row_min > threshold_pow:
            return _INF
        prev = cur
    return prev[m - 1]


def dtw_pow_batch(
    batch: Sequence[Sequence[float]],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> np.ndarray:
    """``DTW_rho(S_b, Q) ** p`` for a batch of equal-length candidates.

    The anti-diagonal wavefront kernel: DP cells on one anti-diagonal
    ``i + j = d`` are mutually independent, so each diagonal of every
    batch lane is computed in one set of vectorized float64 ops.  Costs
    accumulate in float64 regardless of the input dtype.

    Parameters
    ----------
    batch:
        2-D array-like, one candidate sequence per row (all length
        ``m``).
    q, rho, p:
        As in :func:`dtw_pow`.
    threshold_pow:
        Early-abandon threshold in p-th-power space, shared by all
        lanes.  A lane is abandoned (its result becomes ``inf``) once
        every cell of two consecutive anti-diagonals exceeds it.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(batch),)`` float64 vector of p-th-power DTW
        distances; ``inf`` marks abandoned lanes and band-infeasible
        problems.
    """
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    rows = np.ascontiguousarray(batch, dtype=np.float64)
    if rows.ndim != 2:
        raise QueryError(
            f"batch must be 2-D (candidates, length), got shape {rows.shape}"
        )
    qa = np.ascontiguousarray(q, dtype=np.float64)
    if qa.ndim != 1:
        raise QueryError(f"query must be 1-D, got shape {qa.shape}")
    lanes, m = rows.shape
    n = int(qa.size)
    if lanes == 0:
        return np.empty(0, dtype=np.float64)
    _reject_nan(rows, "batch")
    _reject_nan(qa, "query")
    if n == 0 and m == 0:
        return np.zeros(lanes, dtype=np.float64)
    if n == 0 or m == 0 or abs(n - m) > rho:
        return np.full(lanes, _INF, dtype=np.float64)

    # Exact dispatch on the user-supplied norm order, not a computed float.
    squared = p == 2.0  # repro: ignore[RS003]
    limited = not math.isinf(threshold_pow)

    # Three rotating (lanes, n + 1) buffers: column i + 1 holds DP row i
    # of one anti-diagonal; column 0 is a permanent -infinity-row pad.
    # Only columns [lo, hi + 2] of a recycled buffer are ever read again
    # before being rewritten, so resetting the two boundary columns to
    # inf after each diagonal keeps stale values unreachable.
    width = n + 1
    prev2 = np.full((lanes, width), _INF, dtype=np.float64)
    prev1 = np.full((lanes, width), _INF, dtype=np.float64)
    cur = np.full((lanes, width), _INF, dtype=np.float64)
    prev_min = np.full(lanes, _INF, dtype=np.float64)
    for d in range(n + m - 1):
        # Band and matrix constraints on the row index i along diagonal
        # d: |i - (d - i)| <= rho and 0 <= d - i < m.
        lo = max(0, d - m + 1, (d - rho + 1) // 2)
        hi = min(n - 1, d, (d + rho) // 2)
        if lo > hi:
            # Empty diagonal (rho == 0, odd d).  Rotate with an all-inf
            # current buffer so the d+1/d+2 dependencies stay correct.
            cur.fill(_INF)
            diag_min = np.full(lanes, _INF, dtype=np.float64)
        else:
            # s[d - i] for i = lo..hi is a reversed slice of the data.
            s_slice = rows[:, d - hi : d - lo + 1][:, ::-1]
            gaps = np.abs(s_slice - qa[lo : hi + 1])
            cost = gaps * gaps if squared else gaps**p
            if d == 0:
                vals = cost  # the single corner cell (0, 0)
            else:
                vert = prev1[:, lo : hi + 1]  # (i-1, j)
                horiz = prev1[:, lo + 1 : hi + 2]  # (i, j-1)
                best = np.minimum(vert, horiz)
                np.minimum(best, prev2[:, lo : hi + 1], out=best)  # (i-1, j-1)
                vals = cost + best
            cur[:, lo + 1 : hi + 2] = vals
            cur[:, lo] = _INF
            if hi + 2 <= n:
                cur[:, hi + 2] = _INF
            diag_min = vals.min(axis=1)
        if limited:
            stuck = np.minimum(prev_min, diag_min) > threshold_pow
            if stuck.any():
                # Every complete warping path crosses at least one cell
                # of diagonals {d-1, d}; all of them exceed the
                # threshold, so these lanes cannot finish below it.
                cur[stuck] = _INF
                diag_min = np.where(stuck, _INF, diag_min)
                if bool(stuck.all()):
                    return np.full(lanes, _INF, dtype=np.float64)
        prev_min = diag_min
        prev2, prev1, cur = prev1, cur, prev2
    # After the final rotation prev1 holds the last diagonal; the goal
    # cell (n-1, m-1) lives in DP row n-1, i.e. buffer column n.
    return prev1[:, n].copy()


def dtw_pow_wavefront(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> float:
    """Single-pair wavefront DTW (the batch kernel with one lane)."""
    array = np.asarray(s, dtype=np.float64)
    if array.ndim != 1:
        raise QueryError(f"sequence must be 1-D, got shape {array.shape}")
    return float(
        dtw_pow_batch(
            array.reshape(1, -1), q, rho, p=p, threshold_pow=threshold_pow
        )[0]
    )


def dtw_pow(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold_pow: float = _INF,
) -> float:
    """``DTW_rho(S, Q) ** p`` with band constraint and early abandoning.

    Parameters
    ----------
    s, q:
        Data and query sequences.  The paper defines DTW for equal
        lengths; unequal lengths are accepted when the band still permits
        a complete path (``|len(s) - len(q)| <= rho``).  NaN values are
        rejected with :class:`~repro.exceptions.QueryError`.
    rho:
        Sakoe–Chiba warping width: matrix entry ``(i, j)`` is infinite
        when ``|i - j| > rho``.
    p:
        Norm order (the paper's ``p``; 2 by default).
    threshold_pow:
        Early-abandon threshold *in p-th-power space*.  When no path can
        finish at or below it, ``inf`` is returned immediately.

    Returns
    -------
    float
        The p-th power of the constrained DTW distance, or ``inf`` when
        abandoned / no path exists.

    Notes
    -----
    Dispatches between the scalar and wavefront kernels with
    :func:`wavefront_pays` on one lane; both produce bit-identical
    values, so the dispatch is purely a speed decision.
    """
    if rho < 0:
        raise QueryError(f"warping width rho must be >= 0, got {rho}")
    n = len(q)
    m = len(s)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return _INF
    if abs(n - m) > rho:
        return _INF

    if wavefront_pays(1, m, rho):
        return dtw_pow_wavefront(s, q, rho, p=p, threshold_pow=threshold_pow)

    qs = _as_list(q)
    ss = _as_list(s)
    for value in qs:
        if value != value:
            raise QueryError("query contains NaN")
    for value in ss:
        if value != value:
            raise QueryError("sequence contains NaN")
    return _dtw_pow_scalar(ss, qs, rho, p, threshold_pow)


def dtw_distance(
    s: Sequence[float],
    q: Sequence[float],
    rho: int,
    p: float = 2.0,
    threshold: Optional[float] = None,
) -> float:
    """The constrained DTW distance ``DTW_rho(S, Q)`` (rooted form).

    Parameters mirror :func:`dtw_pow`; ``threshold`` (if given) is in
    distance space and enables early abandoning.

    >>> dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], rho=1)
    0.0
    """
    threshold_pow = _INF if threshold is None else threshold**p
    value = dtw_pow(s, q, rho, p=p, threshold_pow=threshold_pow)
    if math.isinf(value):
        return _INF
    return value ** (1.0 / p)
