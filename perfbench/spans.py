"""In-memory span recorder for the benchmark's traced runs.

The tracer wraps entry points of the program's modules *from outside*:
it replaces a class or module attribute with a timing wrapper and puts
the original back on :meth:`Tracer.uninstall`.  Nothing under ``src/``
is edited, so an untraced run executes exactly the program as shipped.

A span is ``(span_id, parent_id, query_id, name, start, end)``.  Spans
of one thread nest through a thread-local stack; a span inherits its
query id from its parent unless its entry point names the query (the
planner and the executor take the ``JoinQuery``, whose name is the
query id).  Spans stay in memory and are written out once, by
:meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], Optional[str], str, float, float]


def _query_name(index: int) -> Callable[[tuple], Optional[str]]:
    def qid_of(args: tuple) -> Optional[str]:
        query = args[index] if len(args) > index else None
        return getattr(query, "name", None)

    return qid_of


class Tracer:
    """Records spans and counts at the program's layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._cache_base: Dict[str, int] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, qid_of=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (None, None)
            qid = (qid_of(args) if qid_of else None) or parent[1]
            span_id = next(tracer._ids)
            stack.append((span_id, qid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((span_id, parent[0], qid, name, start, end))
            if count is not None:
                with tracer._lock:
                    count(tracer.counts, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span_on(self, owner, attr: str, name: str, qid_of=None, count=None) -> None:
        self._patch(owner, attr, self._timed(name, getattr(owner, attr), qid_of, count))

    def count_on(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self._counted(name, getattr(owner, attr)))

    # -- the program's layer boundaries -----------------------------------

    def install(self, serving: bool = False) -> None:
        """Wrap the planning, execution and (with ``serving``) serving and
        storage entry points.  Idempotent only through :meth:`uninstall`."""
        from repro.core import costing, executor, partitioner, planner, reducer_selection
        from repro.mapreduce import runtime
        from repro.relational import sampling

        self.span_on(planner.ThetaJoinPlanner, "plan", "core.planner.plan", _query_name(1))
        self.span_on(
            sampling.SampledJoinEstimator, "selectivity", "relational.sampling.selectivity"
        )
        self.span_on(
            reducer_selection, "evaluate_reducer_counts", "core.reducer_selection.kr_sweep"
        )
        for module in (costing, executor, reducer_selection):
            self.count_on(module, "get_partitioner", "core.partitioner.calls")
        self.count_on(partitioner.HypercubePartitioner, "__init__", "core.partitioner.builds")

        self.span_on(executor.PlanExecutor, "execute", "core.executor.execute", _query_name(2))
        self.span_on(executor, "lift_base_relation", "core.executor.lift")
        self.span_on(runtime.SimulatedCluster, "run_job", "mapreduce.runtime.run_job")
        self.span_on(executor, "_hash_merge", "core.executor.merge", count=_count_merge_rows)
        self.span_on(executor, "composites_to_relation", "joins.records.materialize")

        if serving:
            from repro.mapreduce import wire
            from repro.serve import coordinator, scheduler
            from repro.storage import blob, journal

            self.span_on(coordinator.QueryService, "submit", "serve.coordinator.submit")
            self.span_on(coordinator.QueryService, "result", "serve.coordinator.result")
            self.span_on(scheduler.FairScheduler, "pop", "serve.scheduler.pop")
            self.span_on(wire, "send_frame", "mapreduce.wire.send_frame")
            self.span_on(journal.SessionJournal, "append", "storage.journal.append")
            self.span_on(blob.DiskBlobStore, "get", "storage.blob.get")
        self._cache_base = planning_cache_lookups()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        now = planning_cache_lookups()
        for key in ("hits", "misses"):
            self.counts[f"relational.stats_cache.{key}"] += now[key] - self._cache_base[key]

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

        A span's self time is its duration minus the time its direct
        children cover; children of one thread never overlap.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _qid, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, _parent, _qid, name, start, end in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(sid, 0.0)
        return dict(totals)

    def dump(self, path) -> None:
        """Write the counts, then every span as one JSON array per line."""
        with open(path, "w") as out:
            out.write(json.dumps(dict(self.counts)) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    @classmethod
    def load(cls, path) -> "Tracer":
        """A tracer holding what :meth:`dump` wrote (for analysis only)."""
        tracer = cls()
        with open(path) as lines:
            tracer.counts.update(json.loads(next(lines)))
            tracer.spans = [tuple(json.loads(line)) for line in lines]
        return tracer


def _count_merge_rows(counts: Counter, args: tuple, _result) -> None:
    counts["core.executor.merge_rows_in"] += len(args[0]) + len(args[1])


def planning_cache_lookups() -> Dict[str, int]:
    """Hits and misses of the process-wide planning cache, all tables."""
    from repro.relational.stats_cache import get_planning_cache

    counters = get_planning_cache().counters()
    return {
        key: sum(counters[table][key] for table in ("samples", "stats", "joins"))
        for key in ("hits", "misses")
    }


def layer_metrics(tracer: Tracer, queries: int) -> Dict[str, float]:
    """Per-query layer numbers from one tracer (``queries`` traced)."""
    per = max(1, queries)
    totals = tracer.layer_totals()
    counts = tracer.counts

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0) / per

    def self_time(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) / per

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / per

    hits, misses = counts["relational.stats_cache.hits"], counts["relational.stats_cache.misses"]
    part_calls = counts["core.partitioner.calls"]
    part_builds = counts["core.partitioner.builds"]
    return {
        "core.planner.plan_s": total("core.planner.plan"),
        "core.planner.self_s": self_time("core.planner.plan"),
        "relational.sampling.selectivity_s": total("relational.sampling.selectivity"),
        "relational.sampling.calls": calls("relational.sampling.selectivity"),
        "core.reducer_selection.kr_sweep_s": total("core.reducer_selection.kr_sweep"),
        "relational.stats_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.partitioner.hit_ratio": (
            max(0.0, 1.0 - part_builds / part_calls) if part_calls else 0.0
        ),
        "core.executor.merge_s": total("core.executor.merge"),
        "joins.records.materialize_s": total("joins.records.materialize"),
        "core.executor.lift_s": total("core.executor.lift"),
        "mapreduce.runtime.run_job_s": total("mapreduce.runtime.run_job"),
        "mapreduce.runtime.jobs": calls("mapreduce.runtime.run_job"),
        "core.executor.self_s": self_time("core.executor.execute"),
        "mapreduce.wire.send_s": total("mapreduce.wire.send_frame"),
        "storage.journal.append_s": total("storage.journal.append"),
        "storage.blob.get_s": total("storage.blob.get"),
    }
