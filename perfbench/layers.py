"""Per-layer spans recorded from outside the program, for traced runs only.

:class:`LayerWrappers` replaces public functions and methods of
``repro`` with thin wrappers that time each call, and puts every
original back on exit.  Untraced runs never install it, so they execute
the unwrapped code.

* Functions the engines bind by name at import (``dtw_pow``,
  ``batch_lower_bounds``, ...) are replaced in *every* loaded ``repro``
  module that holds the original object, not only where it is defined.
* Methods are replaced on the class and on every subclass that defines
  its own version, so ``FaultyPager.read`` is covered as well as
  ``Pager.read``.
* Each thread keeps its own span stack, so service workers and shard
  threads get correct self times: a span's self time is its duration
  minus the wrapped calls nested inside it on the same thread.
  A call that re-enters the span it is already in (a subclass method
  calling ``super()``) is folded into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Threads whose spans run in parallel with a span on the thread that
#: waits for them; they are left out of the closure residual.
POOL_THREAD_PREFIX = "repro-shard"

#: Modules imported before wrapping, so that lazily imported layers are
#: patched too.
MODULES = (
    "repro",
    "repro.api",
    "repro.core.distance",
    "repro.core.envelope",
    "repro.core.lower_bounds",
    "repro.core.normalize",
    "repro.core.windows",
    "repro.engines.base",
    "repro.engines.cost_density",
    "repro.engines.hlmj",
    "repro.engines.queues",
    "repro.engines.range_search",
    "repro.engines.ranked_union",
    "repro.engines.scheduling",
    "repro.index.rstar",
    "repro.ingest",
    "repro.serve.queue",
    "repro.shard.database",
    "repro.shard.executor",
    "repro.shard.merge",
    "repro.storage.buffer",
    "repro.storage.deferred",
    "repro.storage.faults",
    "repro.storage.pager",
    "repro.storage.persistence",
    "repro.storage.sequences",
    "repro.storage.wal",
)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    #: Work items attributed to the calls (rows scored, requests drained).
    items: int = 0


class SpanRecorder:
    """Thread-safe accumulator of per-layer call counts and times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.layers: Dict[str, LayerTotals] = defaultdict(LayerTotals)
        #: Self time per thread kind: ``"pool"`` or ``"op"``.
        self.thread_self_s: Dict[str, float] = defaultdict(float)
        #: Per fan-out, the duration of each shard subquery.
        self.fanouts: List[List[float]] = []
        self.queue_depth_max = 0

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        count: bool = True,
    ) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self._record(name, elapsed, elapsed - frame[1], count)

    def _record(
        self, name: str, elapsed: float, self_s: float, count: bool
    ) -> None:
        kind = (
            "pool"
            if threading.current_thread().name.startswith(POOL_THREAD_PREFIX)
            else "op"
        )
        with self._lock:
            totals = self.layers[name]
            totals.calls += int(count)
            totals.total_s += elapsed
            totals.self_s += self_s
            self.thread_self_s[kind] += self_s

    def add_items(self, name: str, items: int) -> None:
        with self._lock:
            self.layers[name].items += items

    def add_fanout(self, durations: List[float]) -> None:
        with self._lock:
            self.fanouts.append(durations)

    def note_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth_max = max(self.queue_depth_max, depth)


Namer = Union[str, Callable[..., str]]


def _span_name(namer: Namer, args: tuple) -> str:
    return namer if isinstance(namer, str) else namer(*args)


def _engine_method(engine: Any) -> str:
    scheduling = getattr(engine, "scheduling", None)
    if scheduling is not None:
        return {"cost-aware": "ru-cost", "max-delta": "ru"}.get(
            scheduling, f"ru-{scheduling}"
        )
    if hasattr(engine, "use_window_group"):
        return "hlmj-wg" if engine.use_window_group else "hlmj"
    return type(engine).__name__.lower()


class LayerWrappers:
    """Install timing wrappers on entry, restore the originals on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- patch primitives ------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _timed(
        self,
        original: Callable[..., Any],
        namer: Namer,
        items: Optional[Callable[[tuple, dict], int]] = None,
    ) -> Callable[..., Any]:
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = _span_name(namer, args)
            if items is not None:
                recorder.add_items(name, items(args, kwargs))
            return recorder.call(name, original, args, kwargs)

        return wrapper

    def _timed_generator(
        self, original: Callable[..., Any], name: str
    ) -> Callable[..., Any]:
        """Time each resumption of a generator; one call per generator."""
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = original(*args, **kwargs)
            first = True
            while True:
                try:
                    item = recorder.call(name, next, (inner,), {}, count=first)
                except StopIteration:
                    return
                first = False
                recorder.add_items(name, 1)
                yield item

        return wrapper

    def function(
        self,
        module_name: str,
        attr: str,
        namer: Namer,
        items: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Wrap a module function everywhere it was bound by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._timed(original, namer, items)
        for module in list(sys.modules.values()):
            module_dict = getattr(module, "__dict__", None)
            if module_dict is None or not getattr(
                module, "__name__", ""
            ).startswith("repro"):
                continue
            for name, value in list(module_dict.items()):
                if value is original:
                    self._set(module, name, wrapper)

    def method(
        self,
        cls: type,
        attr: str,
        namer: Namer,
        items: Optional[Callable[[tuple, dict], int]] = None,
        generator: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        pending = [cls]
        seen = set()
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            pending.extend(current.__subclasses__())
            if attr not in current.__dict__:
                continue
            original = current.__dict__[attr]
            if generator:
                assert isinstance(namer, str)
                wrapper = self._timed_generator(original, namer)
            else:
                wrapper = self._timed(original, namer, items)
            self._set(current, attr, wrapper)

    # -- the layer map ---------------------------------------------------

    def install(self) -> None:
        for name in MODULES:
            importlib.import_module(name)
        m = sys.modules
        pager = m["repro.storage.pager"].Pager
        self.method(
            pager,
            "read",
            lambda self, page_id, *a: "storage.pager.read."
            + self.kind_of(page_id).value,
        )
        self.method(m["repro.storage.buffer"].BufferPool, "fetch", "storage.buffer.fetch")
        self.method(
            m["repro.storage.deferred"].DeferredRetrievalBuffer,
            "drain",
            "storage.deferred.drain",
            generator=True,
        )
        self.method(
            m["repro.storage.sequences"].SequenceStore,
            "get_subsequence",
            "storage.sequences.get_subsequence",
        )
        tree = m["repro.index.rstar"].RStarTree
        self.method(tree, "read_node", "index.rstar.read_node")
        self.method(tree, "insert", "index.rstar.insert")
        self.method(
            m["repro.engines.queues"].WindowQueue,
            "expand_node",
            "engines.queues.expand_node",
        )
        self.method(
            m["repro.engines.scheduling"].SchedulingStrategy,
            "select",
            "engines.scheduling.select",
        )
        self.method(
            m["repro.engines.cost_density"].CostAwareDensityScheduler,
            "select",
            "engines.scheduling.select",
        )
        self.method(
            m["repro.engines.base"].Engine,
            "search",
            lambda self, *a: f"engines.{_engine_method(self)}.search",
        )
        self.method(
            m["repro.engines.range_search"].RangeSearchEngine,
            "search",
            "engines.range.search",
        )
        stream = m["repro.api"].MatchStream
        self.method(stream, "__init__", "engines.stream.search")
        self.method(stream, "__next__", "engines.stream.search")

        def rows(args: tuple, kwargs: dict) -> int:
            return len(args[2] if len(args) > 2 else kwargs["rect_lows"])

        self.function(
            "repro.core.lower_bounds", "batch_lower_bounds",
            "core.lower_bounds.batch_lower_bounds", rows,
        )
        self.function(
            "repro.core.lower_bounds", "batch_lower_bounds_znorm",
            "core.lower_bounds.batch_lower_bounds_znorm", rows,
        )
        for module, attr in (
            ("repro.core.lower_bounds", "lb_keogh_pow"),
            ("repro.core.distance", "dtw_pow"),
            ("repro.core.normalize", "znormalize"),
            ("repro.core.normalize", "rolling_stats"),
            ("repro.core.envelope", "query_envelope"),
        ):
            self.function(module, attr, f"{module[len('repro.'):]}.{attr}")

        wal = m["repro.storage.wal"].WriteAheadLog
        for attr in ("append", "sync", "commit"):
            self.method(wal, attr, f"storage.wal.{attr}")
        self.method(m["repro.ingest"].IngestSession, "commit", "ingest.commit")
        self.function("repro.ingest", "checkpoint_database", "ingest.checkpoint")
        for attr in ("save_database", "load_database"):
            self.function(
                "repro.storage.persistence", attr, f"storage.persistence.{attr}"
            )

        self._wrap_shard_executor(m["repro.shard.executor"].ThreadShardExecutor)
        self.function("repro.shard.merge", "merge_search_results", "shard.merge")
        self._wrap_queue_put(m["repro.serve.queue"].AgingPriorityQueue)

    def _wrap_shard_executor(self, cls: type) -> None:
        recorder = self.recorder
        original = cls.__dict__["run"]

        @functools.wraps(original)
        def run(executor: Any, tasks: Any) -> Any:
            durations: List[float] = []

            def timed(task: Callable[[], Any]) -> Callable[[], Any]:
                def call() -> Any:
                    start = time.perf_counter()
                    try:
                        return task()
                    finally:
                        durations.append(time.perf_counter() - start)

                return call

            result = recorder.call(
                "shard.executor.run",
                original,
                (executor, [timed(task) for task in tasks]),
                {},
            )
            recorder.add_fanout(durations)
            return result

        self._set(cls, "run", run)

    def _wrap_queue_put(self, cls: type) -> None:
        recorder = self.recorder
        original = cls.__dict__["put"]

        @functools.wraps(original)
        def put(queue: Any, *args: Any, **kwargs: Any) -> Any:
            shed = original(queue, *args, **kwargs)
            recorder.note_queue_depth(queue.depth)
            return shed

        self._set(cls, "put", put)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def __enter__(self) -> "LayerWrappers":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
