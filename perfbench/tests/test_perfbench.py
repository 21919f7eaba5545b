"""Tests for the benchmark's own code (not for ``repro``)."""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

from perfbench import inputs, metrics, oracle, workloads
from perfbench.layers import LayerWrappers, SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_are_well_formed() -> None:
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64, name


def test_benchmark_json_declares_the_metrics_printed() -> None:
    spec = _benchmark_json()
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == metrics.END_TO_END
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.GENERATORS)


def _flatten(value: object) -> list:
    """Arrays and plain values of an input object, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value.tobytes()]
    if isinstance(value, dict):
        return [x for key in sorted(value, key=str) for x in [key, *_flatten(value[key])]]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _flatten(item)]
    if hasattr(value, "__dataclass_fields__"):
        return _flatten({k: getattr(value, k) for k in value.__dataclass_fields__})
    return [value]


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_gives_identical_inputs(name: str) -> None:
    make = inputs.GENERATORS[name]
    first, again, other = make(7), make(7), make(8)
    assert _flatten(first) == _flatten(again)
    assert _flatten(first) != _flatten(other)
    if name == "ingest-mixed":
        assert _flatten(first.session(5)) == _flatten(again.session(5))


def test_oracle_matches_the_scalar_reference() -> None:
    from repro.core.reference import reference_dtw_pow, reference_znormalize

    rng = np.random.default_rng(3)
    values = rng.standard_normal(300).cumsum()
    query = values[40:104] + rng.normal(0, 0.1, 64)
    rho = oracle.default_rho(query.size)
    raw = oracle.sequence_profile(values, query, rho)
    znorm = oracle.sequence_profile(values, query, rho, normalize=True)
    for start in range(0, values.size - query.size + 1, 7):
        window = values[start : start + query.size]
        assert raw[start] == reference_dtw_pow(window, query, rho) ** 0.5
        want = reference_dtw_pow(
            reference_znormalize(window), reference_znormalize(query), rho
        ) ** 0.5
        assert oracle.close(znorm[start], want, oracle.distance_tolerance(64, True))


def _wrapped_targets() -> list:
    import repro.engines.base as base
    import repro.engines.queues as queues
    import repro.storage.faults as faults
    import repro.storage.pager as pager

    return [
        (pager.Pager, "read"),
        (faults.FaultyPager, "read"),
        (base, "dtw_pow"),
        (base, "lb_keogh_pow"),
        (queues, "batch_lower_bounds"),
        (sys.modules["repro.core.distance"], "dtw_pow"),
        (base.Engine, "search"),
    ]


def test_wrappers_are_removed_after_the_traced_run() -> None:
    import repro.storage.faults as faults
    import repro.storage.pager as pager

    before = [vars(owner)[attr] for owner, attr in _wrapped_targets()]
    db = _small_db()
    query = db.store.peek_subsequence(0, 500, 128).copy()
    recorder = SpanRecorder()
    with LayerWrappers(recorder) as wrappers:
        assert wrappers.installed > 20
        assert vars(pager.Pager)["read"] is not before[0]
        assert vars(faults.FaultyPager)["read"] is not before[1]
        db.reset_cache()
        db.search(query, k=3)
    assert wrappers.installed == 0
    assert [vars(owner)[attr] for owner, attr in _wrapped_targets()] == before
    traced = {name: t.calls for name, t in recorder.layers.items()}
    assert traced["core.distance.dtw_pow"] > 0
    assert traced["engines.ru-cost.search"] == 1
    db.reset_cache()
    db.search(query, k=3)
    assert {name: t.calls for name, t in recorder.layers.items()} == traced


def test_pager_spans_count_physical_reads_once() -> None:
    from repro.storage.faults import FaultInjector

    import repro

    values = np.random.default_rng(1).standard_normal(6000).cumsum()
    db = repro.SubsequenceDatabase(omega=32, features=4, fault_injector=FaultInjector(seed=1))
    db.insert(0, values)
    db.build()
    query = values[1000:1096].copy()
    recorder = SpanRecorder()
    with LayerWrappers(recorder):
        db.reset_cache()
        result = db.search(query, k=3)
    reads = sum(
        t.calls for name, t in recorder.layers.items() if name.startswith("storage.pager.read.")
    )
    assert reads == result.stats.page_accesses == recorder.layers["storage.buffer.fetch"].calls


def test_self_time_is_per_thread() -> None:
    recorder = SpanRecorder()

    def inner() -> None:
        time.sleep(0.05)

    def elsewhere() -> None:
        recorder.call("other", time.sleep, (0.05,), {})

    def outer() -> None:
        recorder.call("inner", inner, (), {})
        thread = threading.Thread(target=elsewhere)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    recorder.call("outer", outer, (), {})
    layers = recorder.layers
    # The nested call on this thread is subtracted; the other thread's is not.
    assert layers["outer"].self_s == pytest.approx(
        layers["outer"].total_s - layers["inner"].total_s
    )
    assert layers["outer"].self_s >= 0.045
    assert layers["other"].self_s >= 0.045


def test_pages_per_query_repeats_across_runs(monkeypatch) -> None:
    monkeypatch.setattr(workloads, "MIN_QUERY_SAMPLES", 0)
    workload = workloads.make("knn-paged", 5, ".")
    figures = []
    for _ in range(2):
        db = workload.setup()
        workload.prepare(db)
        run = workload.run(db, 0.0, 1)
        run.verify()
        workload.close(db)
        assert run.failed == 0 and run.attempted == len(workload.data.cycles[0])
        figures.append(metrics.end_to_end([1.0], run)["pages_per_query"])
    assert figures[0] == figures[1]
    assert figures[0][0] > 0


def _small_db():
    import repro

    values = np.random.default_rng(0).standard_normal(8000).cumsum()
    db = repro.SubsequenceDatabase(omega=32, features=4)
    db.insert(0, values)
    db.build()
    return db


def test_run_without_sources_fails_without_result(tmp_path) -> None:
    import shutil
    import subprocess

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knn-paged",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
