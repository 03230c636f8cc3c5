"""The benchmark's three workloads and the measurements they report.

* ``q2-merge``  -- mobile Q2 over 1,200-row call relations, planned by
  ``ours`` and each re-queried every pass: the largest-output query
  family, where the Section 4.2 merge and result materialization
  dominate and warm planning costs milliseconds.
* ``q34-plan``  -- mobile Q3 and Q4 alternately, each over a freshly
  generated ~1,000-row relation: content-keyed planning caches and the
  partitioner LRU start cold, so sample-join planning dominates and
  execution is a few percent.
* ``serve-mix`` -- a journaled, checkpointing ``repro serve`` daemon and a
  closed loop of 2 clients, each cycling a fixed 5-query SQL mix over
  ``SERVE_DATA_SEEDS`` data sets and paging every result: many small warm
  queries through admission, session threads, the journal, checkpoint
  restores and the wire.

Every workload runs on the serial execution backend.  Inputs come only
from ``seed``; the program receives the generated relations (or, for the
daemon, the public ``workload``/``volume``/``seed`` submit fields).
Every answer is checked against :mod:`oracles`.

Timings are reported in *reference units*: each query's wall time is
divided by the time a fixed pure-Python loop (:func:`reference_s`) takes
next to it -- for a batch query the mean of the loops timed just before
and after it; for serve traffic the median of the loops timed between
its ``ROUND_S`` rounds, since one round's loop is too short a sample to
stand for seconds of two-process traffic.  The speed of a shared host
drifts by tens of percent over minutes; that drift moves the loop and
the program alike and cancels in the ratio, while a change in the
program's own speed does not.  The raw seconds are reported too.
"""

from __future__ import annotations

import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

import oracles
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Declared relation volume: a 20 GB relation however many rows it has.
DECLARED_BYTES = 20 * 1024**3
Q2_ROWS = 1200
#: q2-merge cycles this many relations, so one run's numbers average
#: over several data sets of its seed rather than one.
Q2_RELATIONS = 16
Q34_ROWS = 1000
#: q34-plan's pass 0: queries (each on its own relation) every run plans.
Q34_PASS = 12
#: q34-plan row counts vary by up to this much around ``Q34_ROWS`` so
#: each query's cardinalities (the partitioner LRU key) are new.
Q34_ROWS_JITTER = 50
STATIONS = 25
SETUP_REPS = 3
#: Iterations of the reference loop: ~0.13 s on a 2.1 GHz Xeon vCPU.
REFERENCE_ITERATIONS = 500_000
#: serve-mix pauses its clients every ``ROUND_S`` seconds to time the
#: reference loop on each of up to ``REFERENCE_CPUS`` CPUs while the
#: daemon is idle.
ROUND_S = 3.0
REFERENCE_CPUS = 4
CLIENTS = 2
PAGE_SIZE = 2000
SERVE_DATA_SEEDS = 4

Q1_SQL = (
    "SELECT t3.id FROM calls t1, calls t2, calls t3 "
    "WHERE t1.d = t2.d AND t1.bt <= t2.bt AND t1.l >= t2.l "
    "AND t2.bsc = t3.bsc AND t2.d = t3.d"
)
Q2_SQL = Q1_SQL.replace("t2.bsc = t3.bsc", "t2.bsc != t3.bsc")
COL_SQL = (
    "SELECT l.orderkey, o.orderdate FROM customer c, orders o, lineitem l "
    "WHERE c.custkey = o.custkey AND l.orderkey = o.orderkey "
    "AND o.orderdate < l.shipdate"
)
#: (workload, volume GB, SQL): mobile Q1@20, Q2@100, Q1@500, Q2@500 and a
#: TPC-H customer-orders-lineitem join @200.
MIX = (
    ("mobile", 20, Q1_SQL),
    ("mobile", 100, Q2_SQL),
    ("mobile", 500, Q1_SQL),
    ("mobile", 500, Q2_SQL),
    ("tpch", 200, COL_SQL),
)

#: Per-layer metrics that only the serve daemon produces (0 elsewhere).
SERVE_LAYER_KEYS = (
    "serve.queued_s",
    "serve.planning_s",
    "serve.running_s",
    "client.submit_s",
    "client.fetch_s",
    "client.pages",
    "serve.rejected",
    "storage.journal_bytes_per_query",
    "storage.journal_records_per_query",
    "storage.checkpoint_hit_ratio",
    "storage.checkpoint_bytes_restored",
)


def reference_s() -> float:
    """Seconds the fixed reference loop takes now: the host's current speed."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for k in range(REFERENCE_ITERATIONS):
        slot = k % 1000
        counts[slot] = counts.get(slot, 0) + k * 3
    return time.perf_counter() - start


def cpus_reference_s() -> float:
    """Mean of :func:`reference_s` run pinned to each CPU (up to
    ``REFERENCE_CPUS``) the calling thread may use.

    serve-mix keeps two vCPUs busy -- the daemon and the clients -- and
    the vCPUs of a shared host drift apart by tens of percent, so its
    reference covers each of them rather than whichever one it ran on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus[:REFERENCE_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(reference_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class Run:
    """Everything one benchmark run measured.

    Latencies and busy time are kept in reference units (see the module
    docstring) and, for the record, in seconds.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []  # untraced, answered correctly
        self.traced_latencies: List[float] = []
        self.latencies_s: List[float] = []  # ``latencies`` in seconds
        self.references: List[float] = []  # every reference_s() taken
        self.attempted = 0
        self.failed = 0
        self.rows = 0
        self.busy_ref = 0.0  # queries_per_ref / rows_per_ref denominator
        self.busy_s = 0.0
        self.setup_s = 0.0
        self.sim_makespan_s = 0.0
        self.peak_rss_mb = 0.0
        self.counts: Dict[str, float] = {}  # deterministic, first pass
        self.layers: Dict[str, float] = {}
        self.tracer: Optional[Tracer] = None

    def answer(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"wrong or failed answer: {what}", file=sys.stderr)

    def timed(self, seconds: float, reference: float, traced: bool) -> None:
        """Record one correctly answered query's latency."""
        if traced:
            self.traced_latencies.append(seconds / reference)
        else:
            self.latencies.append(seconds / reference)
            self.latencies_s.append(seconds)

    def end_to_end(self) -> Dict[str, float]:
        lat = sorted(self.latencies)
        busy = self.busy_ref or float("inf")
        return {
            "query_p50_ref": statistics.median(lat) if lat else 0.0,
            "query_p99_ref": percentile(lat, 99),
            "queries_per_ref": len(lat) / busy,
            "rows_per_ref": self.rows / busy,
            "sim_makespan_s": self.sim_makespan_s,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.setup_s,
            "answered_frac": (
                (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
            ),
        }

    def seconds(self) -> Dict[str, float]:
        """The timing metrics in seconds, as measured, for the record."""
        lat = sorted(self.latencies_s)
        busy = self.busy_s or float("inf")
        return {
            "query_p50_s": statistics.median(lat) if lat else 0.0,
            "query_p99_s": percentile(lat, 99),
            "qps": len(lat) / busy,
            "rows_per_s": self.rows / busy,
            "reference_s": statistics.median(self.references) if self.references else 0.0,
        }

    def per_layer(self) -> Dict[str, float]:
        values = dict.fromkeys(SERVE_LAYER_KEYS, 0.0)
        values.update(self.layers)
        values.update(self.counts)
        untraced, traced = self.latencies, self.traced_latencies
        values["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if untraced and traced
            else 0.0
        )
        return values


def percentile(values: List[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(build: Callable[[], object], discard: Callable[[object], None] = None):
    """Set up ``SETUP_REPS`` times; returns (median seconds, last value).

    One repetition is a fresh interpreter importing the program (the
    import cost every user pays) plus ``build``, which generates the
    inputs and warms the program up.  ``discard`` releases an earlier
    repetition's value, outside the timing.
    """
    times, value = [], None
    for rep in range(SETUP_REPS):
        if rep and discard is not None:
            discard(value)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.core.executor, repro.cli, repro.client"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=True,
        )
        value = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


def reset_planning_caches() -> None:
    from repro.core.partitioner import clear_partitioner_cache
    from repro.relational.stats_cache import reset_default_planning_cache

    reset_default_planning_cache()
    clear_partitioner_cache()


def mobile_calls(rows: int, seed: int):
    from repro.workloads import generate_mobile_calls

    return generate_mobile_calls(
        rows,
        num_stations=STATIONS,
        num_users=max(10, rows // 3),
        seed=seed,
        bytes_per_row=DECLARED_BYTES // rows,
        name="calls",
    )


def chain_calls(seed: int, index: int):
    """The relation of q34-plan's ``index``-th query: new content and size."""
    from repro.workloads import generate_mobile_calls

    rng = random.Random(f"q34-plan/{seed}/{index}")
    rows = Q34_ROWS + rng.randint(-Q34_ROWS_JITTER, Q34_ROWS_JITTER)
    return generate_mobile_calls(
        rows,
        num_stations=STATIONS,
        # 4-way chains of one user need ~12 calls per user to match.
        num_users=max(6, rows // 12),
        seed=rng.randrange(2**31),
        bytes_per_row=DECLARED_BYTES // rows,
        name="calls",
    )


def run_query(config, query, tracer: Optional[Tracer]):
    """Plan and execute one query; returns (outcome, seconds).

    The timed span runs from ``plan()`` to the result relation in hand.
    """
    from repro.core.executor import PlanExecutor
    from repro.core.planner import ThetaJoinPlanner
    from repro.mapreduce.runtime import SimulatedCluster

    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        plan = ThetaJoinPlanner(config).plan(query)
        outcome = PlanExecutor(SimulatedCluster(config)).execute(plan, query)
        return outcome, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def report_counts(reports, result_rows: int, merge_rows_in: int) -> Dict[str, float]:
    """Deterministic counts over one pass of a workload's query set."""
    jobs = [job for report in reports for job in report.job_metrics]
    map_out = sum(job.map_output_records for job in jobs)
    map_in = sum(job.input_records for job in jobs)
    comparisons = sum(job.reduce_comparisons for job in jobs)
    reduce_out = sum(job.output_records for job in jobs)
    return {
        "mapreduce.shuffle_bytes": sum(report.total_shuffle_bytes for report in reports),
        "mapreduce.map_output_records": map_out,
        "mapreduce.reduce_comparisons": comparisons,
        "core.executor.merge_rows_in": merge_rows_in,
        "core.executor.result_rows": result_rows,
        "mapreduce.reduce_yield": reduce_out / comparisons if comparisons else 0.0,
        "mapreduce.replication": map_out / map_in if map_in else 0.0,
    }


def _batch_loop(run: Run, seconds: float, trace: bool, pass_len: int, query_at) -> None:
    """Run a batch workload's queries back to back for ``seconds``.

    ``query_at(i)`` gives ``(query, expected answer)`` for the i-th
    query.  Queries ``[0, pass_len)`` form pass 0, which always
    completes and supplies the deterministic counts and the simulated
    makespan.  A traced run traces the even passes and also completes
    the untraced pass 1, whose latencies give the tracing overhead.
    The reference loop is timed between queries; each query's latency
    is taken in units of the mean of the references on either side.
    """
    from repro.mapreduce.config import ClusterConfig

    config = ClusterConfig()
    run.tracer = Tracer() if trace else None
    traced_queries, merged, reports, pass_rows = 0, 0, [], 0
    minimum = pass_len * (2 if trace else 1)
    deadline = time.perf_counter() + seconds
    index = 0
    run.references.append(reference_s())
    while index < minimum or time.perf_counter() < deadline:
        traced = trace and (index // pass_len) % 2 == 0
        query, expected = query_at(index)
        index += 1
        try:
            outcome, elapsed = run_query(config, query, run.tracer if traced else None)
        except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
            traceback.print_exc()
            outcome = None
        run.references.append(reference_s())
        if outcome is None:
            run.answer(False, query.name)
            continue
        reference = (run.references[-2] + run.references[-1]) / 2
        rows = len(outcome.result.rows)
        ok = oracles.as_multiset(outcome.result.rows) == expected
        run.answer(ok, query.name)
        if traced:
            traced_queries += 1
        if ok:
            run.timed(elapsed, reference, traced)
            if not traced:
                run.busy_ref += elapsed / reference
                run.busy_s += elapsed
                run.rows += rows
        if index <= pass_len:
            reports.append(outcome.report)
            pass_rows += rows
            if trace and index == pass_len:
                merged = run.tracer.counts["core.executor.merge_rows_in"]
        del outcome
    run.sim_makespan_s = sum(report.makespan_s for report in reports)
    run.counts = report_counts(reports, pass_rows, merged)
    if trace:
        run.layers = layer_metrics(run.tracer, traced_queries)
    run.peak_rss_mb = own_peak_rss_mb()


def q2_merge(seed: int, seconds: float, trace: bool) -> Run:
    """``Q2_RELATIONS`` relations, each queried once per pass, warm."""
    from repro.core.planner import ThetaJoinPlanner
    from repro.mapreduce.config import ClusterConfig
    from repro.workloads import make_mobile_query

    def build():
        reset_planning_caches()
        queries = []
        for index in range(Q2_RELATIONS):
            derived = random.Random(f"q2-merge/{seed}/{index}").randrange(2**31)
            query = make_mobile_query(2, mobile_calls(Q2_ROWS, derived))
            ThetaJoinPlanner(ClusterConfig()).plan(query)  # cold planning
            queries.append(query)
        return queries

    run = Run()
    run.setup_s, queries = measure_setup(build)
    expected = [
        oracles.concurrent_calls(query.relations["t1"], same_station=False) for query in queries
    ]

    def query_at(index: int):
        return queries[index % Q2_RELATIONS], expected[index % Q2_RELATIONS]

    _batch_loop(run, seconds, trace, Q2_RELATIONS, query_at)
    return run


def q34_plan(seed: int, seconds: float, trace: bool) -> Run:
    """Q3 and Q4 alternately, each on a new relation, planned cold."""
    from repro.workloads import make_mobile_query

    def build():
        # Nothing to warm: every relation is planned cold, as a user pays
        # on new data; generating the first relation is set-up work.
        reset_planning_caches()
        return chain_calls(seed, 0)

    run = Run()
    run.setup_s, first = measure_setup(build)

    def query_at(index: int):
        calls = first if index == 0 else chain_calls(seed, index)
        same_station = index % 2 == 0  # Q3, else Q4
        query = make_mobile_query(3 if same_station else 4, calls)
        return query, oracles.three_day_chains(calls, same_station)

    _batch_loop(run, seconds, trace, Q34_PASS, query_at)
    return run


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess with its own cache and journal.

    Started as a recoverable deployment runs it: ``--journal``, wave
    checkpoints on, default journal fsync.  ``traced`` starts it through
    ``traced_serve.py``, whose tracer SIGUSR1 arms and SIGUSR2 disarms.
    """

    def __init__(self, workdir: Path, traced: bool = False) -> None:
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.spans_path = workdir / "daemon-spans.jsonl"
        env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            REPRO_CACHE_DIR=str(workdir / "cache"),
            REPRO_CHECKPOINT="1",
            REPRO_JOURNAL_FSYNC="1",
            REPRO_PLAN_DISK_CACHE="1",
        )
        serve = ["serve", "--port", "0", "--journal", str(workdir / "serve.journal")]
        if traced:
            argv = [sys.executable, str(HERE / "traced_serve.py"), str(self.spans_path), *serve]
        else:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        with open(workdir / "daemon.log", "w") as log:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=log, text=True, env=env, cwd=str(ROOT)
            )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.addr = banner.rsplit(" ", 1)[-1].strip()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def arm_tracer(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def disarm_tracer(self) -> None:
        self.proc.send_signal(signal.SIGUSR2)

    def stop(self) -> None:
        from repro.client import Client

        if self.proc.poll() is None:
            if hasattr(self, "addr"):
                Client(self.addr, timeout_s=10.0).shutdown()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def mix_items(seed: int):
    """serve-mix's query list: :data:`MIX` over ``SERVE_DATA_SEEDS`` data
    sets per (workload, volume), seed-major, as ``(workload, volume,
    sql, data_seed)``.  Several data sets per run average the seed's
    data variation (one mix query's plan flips on some data sets)."""
    rng = random.Random(f"serve-mix/{seed}")
    data_seeds = [rng.randrange(2**31) for _ in range(SERVE_DATA_SEEDS)]
    return [(*entry, data_seed) for data_seed in data_seeds for entry in MIX]


def library_answers(items, run: Run, trace: bool):
    """Each item's oracle answer, which a library-mode run of the same
    SQL must also give; served answers are checked against it.

    These runs are serve-mix's pass 0: their reports give the
    deterministic counts and the simulated makespan.
    """
    from repro.mapreduce.config import ClusterConfig
    from repro.relational.sql import parse_join_query
    from repro.workloads import workload_relations

    tracer = Tracer() if trace else None
    answers, reports, rows = [], [], 0
    for index, (workload, volume, sql, data_seed) in enumerate(items):
        relations = workload_relations(workload, volume, data_seed)
        if workload == "mobile":
            truth = oracles.concurrent_calls(relations["calls"], "t2.bsc = t3.bsc" in sql)
        else:
            truth = oracles.orders_shipped_after(
                relations["customer"], relations["orders"], relations["lineitem"]
            )
        query = parse_join_query(sql, relations, name=f"mix{index}")
        outcome, _ = run_query(ClusterConfig(), query, tracer)
        served = oracles.as_multiset(outcome.result.rows)
        run.answer(served == truth, f"library {workload}@{volume} {sql}")
        answers.append(truth)
        reports.append(outcome.report)
        rows += len(outcome.result.rows)
    run.sim_makespan_s = sum(report.makespan_s for report in reports)
    merged = tracer.counts["core.executor.merge_rows_in"] if trace else 0
    run.counts = report_counts(reports, rows, merged)
    return answers


class _Record:
    __slots__ = (
        "query_id", "start", "submit_s", "fetch_s", "rows", "pages", "ok", "rejected", "states",
        "round",
    )

    def __init__(self) -> None:
        self.query_id = ""
        self.start = self.submit_s = self.fetch_s = 0.0
        self.rows = self.pages = self.round = 0
        self.ok = self.rejected = False
        self.states: Dict[str, float] = {}


class Rounds:
    """The timed window of a closed loop, cut into rounds of ``ROUND_S``.

    ``references[r]`` and ``references[r + 1]`` are the reference loop
    times on either side of round ``r``, ``active_s[r]`` how long its
    traffic ran.
    """

    def __init__(self) -> None:
        self.references: List[float] = []
        self.active_s: List[float] = []


def drive_clients(addr: str, items, answers, run: Run, passes: int = 0,
                  seconds: float = 0.0, on_round: Optional[Callable[[int], None]] = None):
    """Closed loop: ``CLIENTS`` threads, one connection each, cycling
    ``items`` (from evenly spaced offsets) for ``passes`` passes or for
    ``seconds`` of traffic.

    A timed loop runs in rounds: when a round's ``ROUND_S`` are up, each
    client finishes its query and waits; with both waiting and the
    daemon idle, the reference loop is timed, ``on_round(r)`` is called
    and round ``r`` starts.  Returns every query's record and the
    :class:`Rounds`.
    """
    from repro.client import Client
    from repro.errors import AdmissionRejected

    class PageCountingClient(Client):
        pages = 0

        def result(self, *args, **kwargs):
            self.pages += 1
            return super().result(*args, **kwargs)

    records: List[_Record] = []
    lock = threading.Lock()
    rounds = Rounds()
    state = {"round": -1, "start": 0.0, "end": 0.0, "done": False}

    def boundary() -> None:
        # Runs in one client thread while every client waits.
        if state["round"] >= 0:
            rounds.active_s.append(time.perf_counter() - state["start"])
        rounds.references.append(cpus_reference_s())
        state["done"] = sum(rounds.active_s) >= seconds
        if state["done"]:
            return
        state["round"] += 1
        if on_round is not None:
            on_round(state["round"])
        state["start"] = time.perf_counter()
        state["end"] = state["start"] + min(ROUND_S, seconds - sum(rounds.active_s))

    # The timeout keeps a client that died from leaving the other waiting.
    gate = threading.Barrier(CLIENTS, action=boundary, timeout=60.0)

    def one_query(client, index: int) -> None:
        item = index % len(items)
        workload, volume, sql, data_seed = items[item]
        record = _Record()
        record.round = state["round"]
        record.start = time.perf_counter()
        client.pages = 0
        try:
            record.query_id = client.execute(sql, workload=workload, volume=volume, seed=data_seed)
            record.submit_s = time.perf_counter() - record.start
            rows = list(client.iter_rows(record.query_id, page_size=PAGE_SIZE))
            record.fetch_s = time.perf_counter() - record.start - record.submit_s
            record.rows, record.pages = len(rows), client.pages
            record.ok = oracles.as_multiset(rows) == answers[item]
        except AdmissionRejected:
            record.rejected = True
        except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
            traceback.print_exc()
        with lock:
            records.append(record)
            run.answer(record.ok, f"served {workload}@{volume} {sql}")

    def client_loop(k: int) -> None:
        with PageCountingClient(addr, client_id=f"bench-{k}") as client:
            index = k * len(items) // CLIENTS
            if passes:
                for index in range(index, index + passes * len(items)):
                    one_query(client, index)
                return
            while True:
                gate.wait()
                if state["done"]:
                    return
                while time.perf_counter() < state["end"]:
                    one_query(client, index)
                    index += 1

    threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if gate.broken:
        raise RuntimeError("a client stopped before the timed window ended")
    return records, rounds


def serve_mix(seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    from repro.client import Client

    run = Run()
    items = mix_items(seed)
    answers = library_answers(items, run, trace)
    daemons: List[Daemon] = []

    def build() -> Daemon:
        daemon = Daemon(workdir / f"daemon-{len(daemons)}", traced=trace)
        daemons.append(daemon)
        drive_clients(daemon.addr, items, answers, run, passes=1)
        return daemon

    rounds_total = math.ceil(seconds / ROUND_S)

    def traced(record: _Record) -> bool:
        return trace and _traced_round(record.round, rounds_total)

    try:
        run.setup_s, daemon = measure_setup(build, discard=Daemon.stop)
        with Client(daemon.addr) as client:
            before = client.stats()
            records, rounds = drive_clients(
                daemon.addr, items, answers, run, seconds=seconds,
                on_round=partial(_toggle_tracing, daemon, rounds_total) if trace else None,
            )
            if trace:
                # State timelines are read after the window so the extra
                # calls do not thin the traced rounds' load.
                for record in records:
                    if record.ok and traced(record):
                        record.states = client.status(record.query_id)["state_times"]
            after = client.stats()
        run.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        for started in daemons:
            started.stop()

    done = [record for record in records if record.ok]
    run.references = rounds.references
    reference = statistics.median(rounds.references)
    run.busy_s = sum(rounds.active_s)
    run.busy_ref = run.busy_s / reference
    run.rows = sum(record.rows for record in done)
    for record in done:
        run.timed(record.submit_s + record.fetch_s, reference, traced(record))
    if trace:
        run.layers = serve_layers(run, records, done, before, after, daemon)
    return run


def _traced_round(index: int, rounds_total: int) -> bool:
    """Traced runs trace the rounds of the 2nd and 4th quarter of the
    window, so drift across it cancels out of the tracing overhead."""
    return (index * 4 // rounds_total) % 2 == 1


def _toggle_tracing(daemon: Daemon, rounds_total: int, index: int) -> None:
    """Arm or disarm the daemon's tracer as round ``index`` starts."""
    now = _traced_round(index, rounds_total)
    if index and now != _traced_round(index - 1, rounds_total):
        (daemon.arm_tracer if now else daemon.disarm_tracer)()


def serve_layers(run: Run, records, done, before, after, daemon: Daemon) -> Dict[str, float]:
    tracer = run.tracer = Tracer.load(daemon.spans_path)
    executed = sum(1 for span in tracer.spans if span[3] == "core.executor.execute")
    layers = layer_metrics(tracer, executed)

    timed = [record for record in done if record.states]
    per = max(1, len(timed))

    def state_gap(first: str, second: str) -> float:
        return sum(r.states.get(second, 0.0) - r.states.get(first, 0.0) for r in timed) / per

    n = max(1, len(done))
    journal = (before["journal"] or {}, after["journal"] or {})
    ckpt = (before["checkpoints"], after["checkpoints"])
    hits = ckpt[1]["hits"] - ckpt[0]["hits"]
    stores = ckpt[1]["stores"] - ckpt[0]["stores"]
    layers.update(
        {
            "serve.queued_s": state_gap("QUEUED", "ADMITTED"),
            "serve.planning_s": state_gap("PLANNING", "RUNNING"),
            "serve.running_s": state_gap("RUNNING", "DONE"),
            "client.submit_s": sum(r.submit_s for r in timed) / per,
            "client.fetch_s": sum(r.fetch_s for r in timed) / per,
            "client.pages": sum(r.pages for r in timed) / per,
            "serve.rejected": sum(1 for r in records if r.rejected),
            "storage.journal_bytes_per_query": (
                journal[1].get("bytes", 0) - journal[0].get("bytes", 0)
            ) / n,
            "storage.journal_records_per_query": (
                journal[1].get("appended", 0) - journal[0].get("appended", 0)
            ) / n,
            "storage.checkpoint_hit_ratio": hits / (hits + stores) if hits + stores else 0.0,
            "storage.checkpoint_bytes_restored": (
                ckpt[1]["bytes_restored"] - ckpt[0]["bytes_restored"]
            ) / n,
        }
    )
    return layers


WORKLOADS = {
    "q2-merge": lambda seed, seconds, trace, workdir: q2_merge(seed, seconds, trace),
    "q34-plan": lambda seed, seconds, trace, workdir: q34_plan(seed, seconds, trace),
    "serve-mix": serve_mix,
}
