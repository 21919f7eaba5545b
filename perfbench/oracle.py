"""Answer checking for the benchmark, run outside every timed window.

Two independent checks back each operation:

* every returned distance is recomputed with the scalar banded DTW of
  :mod:`repro.core.reference` (cached per query, candidate and mode);
* a seeded sample of queries is compared with an exhaustive oracle,
  :func:`distance_profile`, which scores every offset of every stored
  sequence with its own vectorised banded DTW.  It shares no code with
  the engines or with :mod:`repro.core`, and equals the scalar reference
  DP cell for cell (see ``perfbench/tests``).

Raw distances are compared with :data:`REL_TOL`: the engines and the
reference both accumulate in float64, so only the final root may differ
in the last bits.  Z-normalized candidates are scaled by rolling
statistics, which the library's own tests hold to 1e-9 per element
against the scalar reference; over a query of length ``L`` that allows
``1e-9 * sqrt(L)`` in the distance (:func:`distance_tolerance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.reference import reference_dtw_pow, reference_znormalize

#: Relative tolerance for distance comparisons (plus the same absolute
#: slack, for distances near zero).
REL_TOL = 1e-9

#: Per-element tolerance of a z-normalized value against the reference.
ZNORM_ELEMENT_TOL = 1e-9

#: Windows whose deviation falls at or below this are scaled by 1.0,
#: the z-normalization convention the library documents.
SIGMA_FLOOR = 1e-10


def default_rho(length: int) -> int:
    """The library's default warping width: 5 % of the query length."""
    return max(1, int(0.05 * length))


def distance_tolerance(length: int, normalize: bool) -> float:
    """Absolute slack for a distance between length-``length`` series."""
    return ZNORM_ELEMENT_TOL * math.sqrt(length) if normalize else REL_TOL


def close(a: float, b: float, abs_tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def _window_stats(values: np.ndarray, length: int) -> Tuple[np.ndarray, np.ndarray]:
    windows = sliding_window_view(values, length)
    mu = windows.mean(axis=1)
    sigma = windows.std(axis=1)
    return mu, np.where(sigma > SIGMA_FLOOR, sigma, 1.0)


def _znorm_query(query: np.ndarray) -> np.ndarray:
    mu, sigma = _window_stats(query, query.size)
    return (query - mu[0]) / sigma[0]


def sequence_profile(
    values: np.ndarray, query: np.ndarray, rho: int, normalize: bool = False
) -> np.ndarray:
    """Banded DTW distance from ``query`` to every offset of ``values``.

    The DP runs row by row over the query, vectorised across all
    offsets at once; ``band[d]`` holds cell ``(i, i - rho + d)``.  Each
    cell is ``cost + min(vertical, diagonal, left)``, the arithmetic of
    the scalar reference, so raw distances match it bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    n = query.size
    count = values.size - n + 1
    if count <= 0:
        return np.empty(0)
    width = 2 * rho + 1
    shifted = sliding_window_view(values, count)  # shifted[j][s] = values[s + j]
    if normalize:
        mu, sigma = _window_stats(values, n)
        query = _znorm_query(query)
    inf_row = np.full(count, np.inf)
    prev: List[np.ndarray] = [inf_row] * width
    for i in range(n):
        cur: List[np.ndarray] = [inf_row] * width
        left = inf_row
        for d in range(width):
            j = i - rho + d
            if j < 0 or j >= n:
                continue
            column = shifted[j]
            if normalize:
                column = (column - mu) / sigma
            gap = column - query[i]
            cost = gap * gap
            if i == 0 and j == 0:
                value = cost
            else:
                vertical = prev[d + 1] if d + 1 < width else inf_row
                best = np.minimum(np.minimum(vertical, prev[d]), left)
                value = cost + best
            cur[d] = value
            left = value
        prev = cur
    return prev[rho] ** 0.5


@dataclass
class Profile:
    """Exhaustive distances of one query against a set of sequences."""

    distances: Dict[int, np.ndarray]

    def topk(self, k: int) -> List[float]:
        merged = np.concatenate(list(self.distances.values()))
        return sorted(np.partition(merged, k - 1)[:k].tolist())

    def within(self, epsilon: float) -> List[float]:
        merged = np.concatenate(list(self.distances.values()))
        return sorted(merged[merged <= epsilon].tolist())

    def range_epsilon(self, rank: int) -> float:
        """A radius halfway between the ``rank``-th and next distance.

        Sitting between two distinct distances keeps the answer set
        away from ties at the boundary.
        """
        merged = np.unique(np.concatenate(list(self.distances.values())))
        return float((merged[rank - 1] + merged[rank]) / 2.0)


def distance_profile(
    sequences: Dict[int, np.ndarray],
    query: np.ndarray,
    rho: int,
    normalize: bool = False,
) -> Profile:
    return Profile(
        {
            sid: sequence_profile(values, query, rho, normalize)
            for sid, values in sequences.items()
        }
    )


@dataclass
class Answer:
    """What one operation returned, reduced to checkable facts."""

    matches: List[Tuple[int, int, float]]  # (sid, start, distance)
    exact: bool = True


@dataclass
class Checker:
    """Counts operations whose answers fail a check.

    ``data`` maps sid to the values as the benchmark generated them;
    matches are recomputed against those arrays, never against what the
    program stores.
    """

    data: Dict[int, np.ndarray]
    queries: Dict[str, np.ndarray]
    _reference: Dict[tuple, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def reference_distance(
        self, qkey: str, sid: int, start: int, normalize: bool
    ) -> float:
        key = (qkey, sid, start, normalize)
        cached = self._reference.get(key)
        if cached is None:
            query = self.queries[qkey]
            candidate = self.data[sid][start : start + query.size]
            if candidate.size != query.size:
                return math.nan
            if normalize:
                query = reference_znormalize(query)
                candidate = reference_znormalize(candidate)
            cached = reference_dtw_pow(
                candidate, query, default_rho(query.size)
            ) ** 0.5
            self._reference[key] = cached
        return cached

    def check(
        self,
        label: str,
        qkey: str,
        answer: Answer,
        normalize: bool = False,
        expected: Optional[Sequence[float]] = None,
    ) -> bool:
        """True when ``answer`` passes; otherwise records why."""
        if not answer.exact:
            self.failures.append(f"{label}: inexact or partial result")
            return False
        tol = distance_tolerance(self.queries[qkey].size, normalize)
        for sid, start, distance in answer.matches:
            want = self.reference_distance(qkey, sid, start, normalize)
            if not close(distance, want, tol):
                self.failures.append(
                    f"{label}: match ({sid}, {start}) distance {distance!r} "
                    f"!= reference {want!r}"
                )
                return False
        if expected is not None:
            got = sorted(distance for _, _, distance in answer.matches)
            if len(got) != len(expected) or not all(
                close(a, b, tol) for a, b in zip(got, expected)
            ):
                self.failures.append(
                    f"{label}: distances {got[:3]}... differ from the "
                    f"exhaustive oracle {list(expected)[:3]}..."
                )
                return False
        return True
