"""The ``repro serve`` coordinator daemon.

One long-lived TCP server (same frame protocol as the worker daemons:
:mod:`repro.mapreduce.wire`) accepting queries from many clients:

  ==========================================  ===============================
  ``("hello", info)``                          handshake; replies
                                               ``("hello-ack", info)``.
  ``("submit", spec_dict)``                    admit a query (the spec may
                                               carry ``client_id`` and
                                               ``priority``); replies
                                               ``("submitted", query_id)`` or
                                               ``("rejected", error_dict)``.
  ``("status", query_id)``                     lifecycle snapshot.
  ``("result", qid, timeout_s[, off, lim])``   block (bounded) for the
                                               terminal payload; ``offset`` /
                                               ``limit`` page the result rows
                                               (``total_rows`` /
                                               ``next_offset`` ride along).
  ``("cancel", query_id, reason)``             fire the query's token.
  ``("fleet", None | "h:p,h:p")``              read or re-point the worker
                                               fleet (drain/dial live).
  ``("stats",)``                               service counters.
  ``("shutdown",)``                            stop the daemon.
  ==========================================  ===============================

Robustness invariants (argued in DESIGN.md, enforced by tests):

* **Bounded, fair admission** — at most ``max_queue`` queries wait and
  ``max_concurrent`` run; query ``max_queue + 1`` is rejected in O(1)
  with a structured ``admission-rejected`` error, before any planning
  work happens.  An overloaded service stays responsive.  Within the
  bound, dequeue order is the :class:`~repro.serve.scheduler`'s:
  priority with anti-starvation aging, per-client running/queue quotas
  (``quota-exceeded`` is its own taxonomy code), and fair interleaving
  between equal-priority tenants.  The shed/quota check and the queue
  append happen under one ``_cond`` scope, so concurrent submits can
  never overshoot either bound.
* **Bounded replies** — a DONE result whose pickled payload would blow
  the wire's frame cap (or ``REPRO_RESULT_MAX_BYTES``) is *not* sent;
  the client gets a structured ``result-too-large`` error steering it
  to paginated fetch, and the session stays DONE and servable.
* **Session isolation** — every query runs on its own thread with its
  own :class:`~repro.mapreduce.runtime.SimulatedCluster` (own HDFS
  namespace), its own knob scope
  (:class:`~repro.mapreduce.config.settings_scope`), and its own
  cancellation token (:class:`~repro.mapreduce.cancel.cancel_scope`).
  Shared state is limited to immutable relations, the planning cache
  (serialized by ``_planning_lock``), and the worker fleet — whose
  dispatcher already folds results per batch.
* **Deadlines/cancellation are cooperative and terminal** — the token
  fires once; every layer observes it at a work-item boundary; in-flight
  remote tasks of a dead query are abandoned, not retried; the session
  reaches exactly one terminal state and ``done`` is set exactly once.
* **Crash recovery** — with ``--journal`` the coordinator appends one
  durable record per lifecycle event (submit, state, completed-wave
  checkpoint digest, terminal outcome) to an append-only CRC-framed log
  (:class:`~repro.storage.journal.SessionJournal`).  ``--recover``
  replays it on startup, *before* the admitter runs: DONE sessions come
  back serving their cached result, FAILED/CANCELLED/TIMED_OUT ones
  their error, and every non-terminal session is re-admitted under its
  original query id — resuming from its last completed wave via the
  checkpoint tier (the executor restores by content key; the journal's
  wave records exist so tests and operators can *prove* which waves
  were skipped).  A submit is journaled before its session becomes
  visible, so an acknowledged query id survives any crash after it.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
from typing import Dict, Optional, Tuple

from repro.errors import (
    AdmissionRejected,
    ResultTooLarge,
    ServiceError,
    error_to_wire,
)
from repro.mapreduce import wire
from repro.mapreduce.cancel import cancel_scope, check_cancelled
from repro.mapreduce.config import (
    EXEC_BACKEND_ENV,
    EXEC_WORKERS_ENV,
    STRICT_FLEET_ENV,
    TASK_RETRIES_ENV,
    BLOB_SHIP_ENV,
    WORKER_CONNECT_TIMEOUT_ENV,
    WORKER_HEARTBEAT_ENV,
    ClusterConfig,
    execution_settings,
    settings_scope,
)
from repro.serve.fleet import FleetManager
from repro.serve.scheduler import (
    PRIORITY_DEFAULT,
    PRIORITY_MAX,
    PRIORITY_MIN,
    FairScheduler,
)
from repro.serve.session import (
    ADMITTED,
    DONE,
    FAILED,
    PLANNING,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    QuerySession,
)
from repro.storage import (
    SessionJournal,
    blob_tier,
    externalize_value,
    resolve_value,
)

#: Knobs a query may override for its own session.  The fleet address
#: list is deliberately absent: the fleet is service-owned state (the
#: ``fleet`` endpoint changes it for everyone); a per-query private
#: fleet would break the single-live-backend reconfiguration model.
ALLOWED_KNOBS = frozenset(
    {
        EXEC_BACKEND_ENV,
        EXEC_WORKERS_ENV,
        TASK_RETRIES_ENV,
        WORKER_HEARTBEAT_ENV,
        WORKER_CONNECT_TIMEOUT_ENV,
        STRICT_FLEET_ENV,
        BLOB_SHIP_ENV,
    }
)

WORKLOADS = ("mobile", "tpch")


class QueryService:
    """The coordinator: admission queue, session threads, fleet, stats."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 4,
        max_queue: int = 16,
        default_deadline_s: Optional[float] = None,
        config: Optional[ClusterConfig] = None,
        journal_path: Optional[str] = None,
        recover: bool = False,
        client_max_running: Optional[int] = None,
        client_max_queued: Optional[int] = None,
        aging_s: Optional[float] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if recover and journal_path is None:
            raise ValueError("--recover requires a journal path")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.default_deadline_s = default_deadline_s
        self._config = config or ClusterConfig()
        self.fleet = FleetManager()
        settings = execution_settings()
        self._sched = FairScheduler(
            max_queue=max_queue,
            max_concurrent=max_concurrent,
            client_max_running=(
                settings.client_max_running
                if client_max_running is None
                else client_max_running
            ),
            client_max_queued=(
                settings.client_max_queued
                if client_max_queued is None
                else client_max_queued
            ),
            aging_s=settings.sched_aging_s if aging_s is None else aging_s,
        )

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]

        self._sessions: Dict[str, QuerySession] = {}
        self._cond = threading.Condition()
        self._closing = False
        self._ids = itertools.count(1)
        #: Planning shares process-global caches (statistics LRU, disk
        #: store); serializing it keeps those structures single-writer
        #: and gives executing queries the cores.
        self._planning_lock = threading.Lock()
        self._connections: list = []
        self._conn_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "rejected": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "timed_out": 0,
        }
        self._stats_lock = threading.Lock()
        self._relations_cache: Dict[Tuple[str, int, int], dict] = {}
        self._relations_lock = threading.Lock()
        self.journal: Optional[SessionJournal] = None
        if journal_path is not None:
            self.journal = SessionJournal(
                journal_path, fsync=execution_settings().journal_fsync
            )
        self._journal_blobs = None
        self.recovered: Dict[str, object] = {
            "records": 0,
            "torn": False,
            "done": 0,
            "other_terminal": 0,
            "resumed": 0,
            "requeued": 0,
            "spill_lost": 0,
        }
        if recover:
            # Replay must finish before the admitter thread exists:
            # recovery is the only writer of session state until here.
            self._recover_from_journal()
        self._admitter = threading.Thread(
            target=self._admission_loop, daemon=True, name="repro-serve-admit"
        )
        self._admitter.start()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def _running(self) -> int:
        """Live slot count, owned by the scheduler since PR 10."""
        return self._sched.total_running

    # -- durability ------------------------------------------------------

    def _journal_append(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _journal_blob_store(self):
        """The blob tier oversized journal values spill to (lazy; a
        journal-less service never touches the cache directory)."""
        if self._journal_blobs is None:
            self._journal_blobs = blob_tier()
        return self._journal_blobs

    def _recover_from_journal(self) -> None:
        """Fold the journal into live session state (startup only).

        Replay is order-tolerant per query id: the submit record carries
        the spec, the *last* state record the frontier, and a terminal
        record (when present) wins outright.  Non-terminal sessions are
        re-created under their original ids with **fresh** deadline
        budgets — a query should not be timed out for the coordinator's
        crash — and queue up for normal admission; their completed waves
        come back from the checkpoint tier by content key, not from the
        journal.
        """
        records, torn = self.journal.replay()
        specs: Dict[str, dict] = {}
        states: Dict[str, str] = {}
        terminals: Dict[str, dict] = {}
        order: list = []
        for record in records:
            if not isinstance(record, dict):
                continue
            qid = record.get("id")
            if not isinstance(qid, str):
                continue
            kind = record.get("kind")
            if kind == "submit":
                if qid not in specs:
                    order.append(qid)
                specs[qid] = record.get("spec") or {}
            elif kind == "state":
                states[qid] = str(record.get("state"))
            elif kind == "terminal":
                terminals[qid] = record
        max_id = 0
        for qid in order:
            try:
                max_id = max(max_id, int(qid.lstrip("q")))
            except ValueError:
                pass
        self._ids = itertools.count(max_id + 1)
        for qid in order:
            spec = specs[qid]
            try:
                priority = int(spec.get("priority", PRIORITY_DEFAULT))
            except (TypeError, ValueError):
                priority = PRIORITY_DEFAULT
            session = QuerySession(
                query_id=qid,
                sql=str(spec.get("sql", "")),
                workload=str(spec.get("workload", "mobile")),
                volume=int(spec.get("volume", 0) or 0),
                seed=int(spec.get("seed", 0) or 0),
                method=str(spec.get("method", "ours")),
                deadline_s=spec.get("deadline_s"),
                knobs=spec.get("knobs") or {},
                client_id=str(spec.get("client_id") or "default"),
                priority=min(PRIORITY_MAX, max(PRIORITY_MIN, priority)),
            )
            terminal = terminals.get(qid)
            if terminal is not None:
                state = str(terminal.get("state", FAILED))
                if state not in TERMINAL_STATES:
                    state = FAILED
                result = None
                if state == DONE:
                    # The journaled result may be a blob-tier reference
                    # (spilled at terminal time).  A lost spill is not a
                    # lost query: fall through to re-admission and let
                    # deterministic re-execution rebuild the rows.
                    result, ok = resolve_value(
                        terminal.get("result"), self._journal_blob_store()
                    )
                    if not ok:
                        self.recovered["spill_lost"] += 1
                        terminal = None
            if terminal is not None:
                session.restore_terminal(
                    state,
                    error=terminal.get("error"),
                    result=result,
                )
                self._sessions[qid] = session
                key = "done" if state == DONE else "other_terminal"
                self.recovered[key] += 1
                continue
            self._sessions[qid] = session
            # Quotas govern *new* load; work already admitted in a past
            # process life is re-seated unconditionally.
            self._sched.enqueue(session, force=True)
            key = (
                "resumed"
                if states.get(qid) in (ADMITTED, PLANNING, RUNNING)
                else "requeued"
            )
            self.recovered[key] += 1
        self.recovered["records"] = len(records)
        self.recovered["torn"] = bool(torn)

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept loop; returns when :meth:`stop` closes the listener."""
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - exotic socket stack
                pass
            with self._conn_lock:
                if self._closing:
                    conn.close()
                    return
                self._connections.append(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                daemon=True,
                name="repro-serve-conn",
            ).start()

    def start(self) -> "QueryService":
        """Serve on a daemon thread (in-process tests); returns self."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True, name="repro-serve-accept"
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener, cancel live sessions, wake everything."""
        with self._cond:
            self._closing = True
            queued = self._sched.drain()
            self._cond.notify_all()
        for session in queued:
            session.token.cancel("service shutting down")
            session.finish_from_token()
        for session in list(self._sessions.values()):
            if session.state not in TERMINAL_STATES:
                session.token.cancel("service shutting down")
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        self._close_socket(self._listener)
        for conn in connections:
            self._close_socket(conn)

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    # -- admission -------------------------------------------------------

    def submit(self, spec: dict) -> QuerySession:
        """Validate + enqueue one query; raises ``AdmissionRejected``.

        Validation is deliberately cheap (type/enum checks only): load
        shedding must cost O(1) however overloaded the service is.
        """
        if not isinstance(spec, dict):
            raise AdmissionRejected("submit payload must be a dict")
        sql = spec.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise AdmissionRejected("submit requires a non-empty 'sql' string")
        workload = spec.get("workload", "mobile")
        if workload not in WORKLOADS:
            raise AdmissionRejected(
                f"unknown workload {workload!r}",
                details={"allowed": list(WORKLOADS)},
            )
        method = spec.get("method", "ours")
        from repro.cli import PLANNERS

        if method not in PLANNERS:
            raise AdmissionRejected(
                f"unknown method {method!r}",
                details={"allowed": sorted(PLANNERS)},
            )
        knobs = spec.get("knobs") or {}
        if not isinstance(knobs, dict):
            raise AdmissionRejected("'knobs' must be a dict")
        bad = sorted(set(knobs) - ALLOWED_KNOBS)
        if bad:
            raise AdmissionRejected(
                f"knob(s) not overridable per query: {', '.join(bad)}",
                details={"rejected": bad, "allowed": sorted(ALLOWED_KNOBS)},
            )
        deadline_s = spec.get("deadline_s", self.default_deadline_s)
        if deadline_s is not None:
            try:
                deadline_s = float(deadline_s)
            except (TypeError, ValueError):
                raise AdmissionRejected("'deadline_s' must be a number")
            if deadline_s <= 0:
                raise AdmissionRejected("'deadline_s' must be > 0")
        client_id = spec.get("client_id", "default")
        if not isinstance(client_id, str) or not client_id.strip():
            raise AdmissionRejected("'client_id' must be a non-empty string")
        client_id = client_id.strip()
        if len(client_id) > 128:
            raise AdmissionRejected("'client_id' must be <= 128 characters")
        priority = spec.get("priority", PRIORITY_DEFAULT)
        if (
            not isinstance(priority, int)
            or isinstance(priority, bool)
            or not (PRIORITY_MIN <= priority <= PRIORITY_MAX)
        ):
            raise AdmissionRejected(
                f"'priority' must be an integer in "
                f"[{PRIORITY_MIN}, {PRIORITY_MAX}]",
                details={"min": PRIORITY_MIN, "max": PRIORITY_MAX},
            )

        with self._cond:
            if self._closing:
                raise AdmissionRejected("service is shutting down")
            # Shed/quota check and queue append share this one lock
            # scope: N concurrent submits racing K free seats admit
            # exactly K, never K+1 (regression-tested).
            try:
                self._sched.check_admit(client_id)
            except AdmissionRejected:
                with self._stats_lock:
                    self.stats["rejected"] += 1
                raise
            session = QuerySession(
                query_id=f"q{next(self._ids)}",
                sql=sql,
                workload=workload,
                volume=int(spec.get("volume", 0) or 0),
                seed=int(spec.get("seed", 0) or 0),
                method=method,
                deadline_s=deadline_s,
                knobs=knobs,
                client_id=client_id,
                priority=priority,
            )
            self._sessions[session.query_id] = session
            # Durable before visible: once the client holds this query
            # id, a crash-and-recover coordinator still knows the query
            # — and re-admits it under its original client and priority.
            self._journal_append(
                {
                    "kind": "submit",
                    "id": session.query_id,
                    "spec": {
                        "sql": session.sql,
                        "workload": session.workload,
                        "volume": session.volume,
                        "seed": session.seed,
                        "method": session.method,
                        "deadline_s": session.deadline_s,
                        "knobs": dict(session.knobs),
                        "client_id": session.client_id,
                        "priority": session.priority,
                    },
                }
            )
            self._sched.enqueue(session, force=True)
            with self._stats_lock:
                self.stats["submitted"] += 1
            self._cond.notify_all()
        return session

    def _admission_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closing and not self._sched.has_eligible():
                    self._cond.wait(0.1)
                    self._reap_queued_locked()
                if self._closing:
                    return
                session = self._sched.pop()
            if session is None:
                continue
            if session.token.fired() is not None:
                # Died while queued (cancel or deadline): terminal now,
                # never spends a concurrency slot on planning.
                session.finish_from_token()
                self._count_terminal(session)
                self._release_slot(session)
                continue
            session.transition(ADMITTED)
            self._journal_append(
                {"kind": "state", "id": session.query_id, "state": ADMITTED}
            )
            threading.Thread(
                target=self._run_session,
                args=(session,),
                daemon=True,
                name=f"repro-serve-{session.query_id}",
            ).start()

    def _reap_queued_locked(self) -> None:
        """Terminalize queued sessions whose token already fired, so a
        cancelled/expired query never waits for a concurrency slot just
        to die.  Caller holds ``self._cond``.  The scheduler removes all
        fired sessions in one pass (the PR 6 version re-scanned the
        deque per removal, O(n^2) when a deadline wave fires), and each
        is journaled as terminal exactly once, here."""
        for session in self._sched.reap_fired():
            session.finish_from_token()
            self._count_terminal(session)

    def _release_slot(self, session: QuerySession) -> None:
        with self._cond:
            self._sched.release(session)
            self._cond.notify_all()

    def _count_terminal(self, session: QuerySession) -> None:
        key = {
            "DONE": "done",
            "FAILED": "failed",
            "CANCELLED": "cancelled",
            "TIMED_OUT": "timed_out",
        }.get(session.state)
        if key:
            with self._stats_lock:
                self.stats[key] += 1
        # _cond is an RLock underneath, so this is safe from the reap
        # path (which already holds it) and session threads alike.
        with self._cond:
            self._sched.note_terminal(session)
        if self.journal is None:
            return
        # Every terminal path funnels through here, so this is the one
        # place the journal learns a session's outcome (rows for DONE —
        # that is what lets a recovered coordinator serve cached
        # results).  Large results spill to the blob tier by digest so
        # the journal grows with *events*, not answer volume.
        result = session.result if session.state == DONE else None
        if result is not None:
            result, _spilled = externalize_value(
                result,
                execution_settings().journal_result_max_bytes,
                self._journal_blob_store(),
            )
        self._journal_append(
            {
                "kind": "terminal",
                "id": session.query_id,
                "state": session.state,
                "error": session.error,
                "result": result,
            }
        )

    # -- session execution ----------------------------------------------

    def _relations(self, workload: str, volume: int, seed: int) -> dict:
        from repro.workloads import workload_relations

        key = (workload, volume, seed)
        with self._relations_lock:
            relations = self._relations_cache.get(key)
            if relations is None:
                relations = workload_relations(workload, volume, seed)
                self._relations_cache[key] = relations
        return relations

    def _session_overrides(self, session: QuerySession) -> Dict[str, str]:
        overrides = dict(session.knobs)
        with settings_scope(overrides):
            resolved = execution_settings()
        if resolved.backend == "process":
            # The fork-pool backend re-forks per batch and tears pools
            # down globally — unsafe under concurrent sessions.  Threads
            # give the same bit-identical results; pin quietly.
            overrides[EXEC_BACKEND_ENV] = "thread"
        return overrides

    def _run_session(self, session: QuerySession) -> None:
        from repro.cli import PLANNERS
        from repro.core.executor import PlanExecutor
        from repro.mapreduce.runtime import SimulatedCluster
        from repro.relational.sql import parse_join_query

        on_wave = None
        if self.journal is not None:
            query_id = session.query_id

            def on_wave(job_id: str, digest: str, restored: bool) -> None:
                # One durable record per completed (or restored) wave:
                # the recovery drill reads these to prove which waves a
                # restarted coordinator did NOT re-execute.
                self._journal_append(
                    {
                        "kind": "wave",
                        "id": query_id,
                        "job_id": job_id,
                        "digest": digest,
                        "restored": restored,
                    }
                )

        try:
            overrides = self._session_overrides(session)
            with settings_scope(overrides), cancel_scope(session.token):
                session.transition(PLANNING)
                self._journal_append(
                    {"kind": "state", "id": session.query_id, "state": PLANNING}
                )
                check_cancelled()
                relations = self._relations(
                    session.workload, session.volume, session.seed
                )
                with self._planning_lock:
                    query = parse_join_query(
                        session.sql, relations, name=session.query_id
                    )
                    planner = PLANNERS[session.method](self._config)
                    plan = planner.plan(query)
                check_cancelled()
                session.transition(RUNNING)
                self._journal_append(
                    {"kind": "state", "id": session.query_id, "state": RUNNING}
                )
                outcome = PlanExecutor(
                    SimulatedCluster(self._config), on_wave=on_wave
                ).execute(plan, query)
            report = outcome.report
            session.complete(
                {
                    "columns": list(outcome.result.schema.names),
                    "rows": [tuple(row) for row in outcome.result.rows],
                    "output_records": report.output_records,
                    "makespan_s": report.makespan_s,
                    "merge_time_s": report.merge_time_s,
                    "num_jobs": len(report.job_metrics),
                    "checkpoint_hits": report.checkpoint_hits,
                    "checkpoint_stores": report.checkpoint_stores,
                }
            )
        except BaseException as exc:  # noqa: BLE001 - classified by taxonomy
            session.fail(exc)
        finally:
            self._count_terminal(session)
            self._release_slot(session)

    # -- endpoints -------------------------------------------------------

    def _session_or_error(self, query_id: object) -> QuerySession:
        session = self._sessions.get(query_id) if isinstance(query_id, str) else None
        if session is None:
            raise ServiceError(
                f"unknown query id {query_id!r}",
                details={"known": sorted(self._sessions)[-8:]},
            )
        return session

    def status(self, query_id: str) -> dict:
        return self._session_or_error(query_id).snapshot()

    def cancel(self, query_id: str, reason: str = "client cancel") -> dict:
        session = self._session_or_error(query_id)
        session.token.cancel(reason)
        with self._cond:
            if not (session.state == QUEUED and self._sched.remove(session)):
                session = None  # running: its own thread terminalizes it
        if session is not None:
            session.finish_from_token()
            self._count_terminal(session)
            return session.snapshot()
        return self.status(query_id)

    def result(
        self,
        query_id: str,
        timeout_s: float = 60.0,
        offset: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> dict:
        """Terminal payload, blocking up to ``timeout_s``.

        A non-terminal reply (``terminal: False``) is a *poll timeout*,
        not an error — clients loop.  Errors ride in the snapshot's
        ``error`` field as taxonomy dicts.

        ``offset``/``limit`` page the DONE result's rows: the reply's
        ``result`` then carries the slice plus ``total_rows``,
        ``offset``, and ``next_offset`` (``None`` once exhausted), and
        pages concatenate bit-identically to the unpaginated rows.  An
        *unpaginated* fetch of a result whose pickled payload exceeds
        the service's byte budget raises :class:`ResultTooLarge` instead
        of killing the connection mid-send — the session stays DONE and
        the same rows remain fetchable page by page.
        """
        session = self._session_or_error(query_id)
        session.done.wait(max(0.0, min(float(timeout_s), 300.0)))
        payload = session.snapshot()
        if session.state != DONE:
            return payload
        result = session.result or {}
        max_bytes = min(
            execution_settings().result_max_bytes, wire.MAX_FRAME_BYTES
        )
        if offset is None and limit is None:
            if session.result_bytes > max_bytes:
                rows = result.get("rows") or []
                raise ResultTooLarge(
                    f"{query_id}: result is ~{session.result_bytes} pickled "
                    f"bytes (budget {max_bytes}); fetch it in pages",
                    details={
                        "query_id": query_id,
                        "result_bytes": session.result_bytes,
                        "max_bytes": max_bytes,
                        "total_rows": len(rows),
                        "hint": "retry with offset/limit (Client.iter_rows)",
                    },
                )
            payload["result"] = result
            return payload
        rows = result.get("rows") or []
        total_rows = len(rows)
        try:
            start, stop, next_offset = wire.page_bounds(total_rows, offset, limit)
        except ValueError as exc:
            raise ServiceError(str(exc), details={"query_id": query_id})
        if total_rows and session.result_bytes > 0:
            # Proportional estimate: a page of k rows costs about
            # k/total of the full pickle.  Cheap, and safely below the
            # frame cap for any sane limit.
            estimated = session.result_bytes * max(1, stop - start) // total_rows
            if estimated > max_bytes:
                raise ResultTooLarge(
                    f"{query_id}: a {stop - start}-row page is still "
                    f"~{estimated} pickled bytes (budget {max_bytes}); "
                    "reduce 'limit'",
                    details={
                        "query_id": query_id,
                        "estimated_bytes": estimated,
                        "max_bytes": max_bytes,
                        "total_rows": total_rows,
                    },
                )
        page = dict(result)
        page["rows"] = rows[start:stop]
        page["offset"] = start
        page["total_rows"] = total_rows
        page["next_offset"] = next_offset
        payload["result"] = page
        return payload

    def service_stats(self) -> dict:
        from repro.mapreduce.backend import _BACKENDS, DistributedBackend

        with self._cond:
            queued = len(self._sched)
            running = self._sched.total_running
            scheduler = self._sched.stats()
        with self._stats_lock:
            counters = dict(self.stats)
        distributed = [
            backend
            for backend in _BACKENDS.values()
            if isinstance(backend, DistributedBackend)
        ]
        in_flight = sum(backend.tasks_in_flight for backend in distributed)
        data_plane = {
            "bytes_shipped": 0,
            "blob_puts": 0,
            "blob_hits": 0,
            "blob_bytes_reused": 0,
            "registrations": 0,
        }
        for backend in distributed:
            for name in data_plane:
                data_plane[name] += backend.counters.get(name, 0)
        resilience = {
            "hedges_launched": 0,
            "hedge_wins": 0,
            "breaker_trips": 0,
            "breaker_skips": 0,
        }
        breakers: Dict[str, dict] = {}
        for backend in distributed:
            for name in resilience:
                resilience[name] += backend.counters.get(name, 0)
            breakers.update(backend.breaker_state())
        from repro.core.executor import checkpoint_counters

        counters.update(
            {
                "queued": queued,
                "running": running,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "scheduler": scheduler,
                "clients": scheduler["clients"],
                "fleet": list(self.fleet.addrs),
                "tasks_in_flight": in_flight,
                "data_plane": data_plane,
                "resilience": resilience,
                "breakers": breakers,
                "checkpoints": checkpoint_counters(),
                "journal": self.journal.stats() if self.journal else None,
                "recovered": dict(self.recovered),
            }
        )
        return counters

    # -- connection handling ---------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    message = wire.recv_frame(conn)
                except wire.WireError:
                    return
                reply = self._handle(message)
                if reply is None:
                    return
                try:
                    wire.send_frame(conn, reply)
                except wire.WireError as exc:
                    # Oversized reply refused sender-side before any
                    # bytes left: the connection is intact, so answer
                    # with a structured error instead of vanishing.
                    # (Defense in depth — the result endpoint's byte
                    # budget should catch this first.)
                    try:
                        wire.send_frame(
                            conn,
                            (
                                "error",
                                error_to_wire(
                                    ResultTooLarge(
                                        f"reply exceeds the wire frame cap: {exc}",
                                        details={
                                            "hint": "retry with offset/limit"
                                        },
                                    )
                                ),
                            ),
                        )
                    except (OSError, wire.WireError):
                        return
                except OSError:
                    return
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            self._close_socket(conn)

    def _handle(self, message: object) -> Optional[Tuple]:
        if not isinstance(message, tuple) or not message:
            return ("error", error_to_wire(ServiceError("malformed message")))
        kind = message[0]
        try:
            if kind == "hello":
                return ("hello-ack", wire.peer_info())
            if kind == "ping":
                return ("pong", message[1] if len(message) > 1 else 0)
            if kind == "submit":
                session = self.submit(message[1])
                return ("submitted", session.query_id)
            if kind == "status":
                return ("status", self.status(message[1]))
            if kind == "result":
                timeout_s = message[2] if len(message) > 2 else 60.0
                offset = message[3] if len(message) > 3 else None
                limit = message[4] if len(message) > 4 else None
                return ("result", self.result(message[1], timeout_s, offset, limit))
            if kind == "cancel":
                reason = message[2] if len(message) > 2 else "client cancel"
                return ("cancelled", self.cancel(message[1], str(reason)))
            if kind == "fleet":
                raw = message[1] if len(message) > 1 else None
                if raw is None:
                    return ("fleet", {"addrs": list(self.fleet.addrs)})
                delta = self.fleet.set_addrs(str(raw))
                delta["addrs"] = list(self.fleet.addrs)
                return ("fleet", delta)
            if kind == "stats":
                return ("stats", self.service_stats())
            if kind == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
                return None
            return (
                "error",
                error_to_wire(ServiceError(f"unknown message kind {kind!r}")),
            )
        except AdmissionRejected as exc:
            return ("rejected", error_to_wire(exc))
        except ServiceError as exc:
            return ("error", error_to_wire(exc))
        except (ValueError, IndexError, TypeError) as exc:
            return (
                "error",
                error_to_wire(ServiceError(f"malformed request: {exc}")),
            )


# ----------------------------------------------------------------------
# process helpers (CLI + tests)
# ----------------------------------------------------------------------


def serve(
    host: str,
    port: int,
    max_concurrent: int = 4,
    max_queue: int = 16,
    default_deadline_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    recover: bool = False,
    client_max_running: Optional[int] = None,
    client_max_queued: Optional[int] = None,
    aging_s: Optional[float] = None,
) -> int:
    """CLI entry: run one coordinator daemon until interrupted.

    Prints ``repro-serve listening on HOST:PORT`` (flushed) before
    serving, so spawners using ``--port 0`` can read the assigned port.
    """
    service = QueryService(
        host=host,
        port=port,
        max_concurrent=max_concurrent,
        max_queue=max_queue,
        default_deadline_s=default_deadline_s,
        journal_path=journal_path,
        recover=recover,
        client_max_running=client_max_running,
        client_max_queued=client_max_queued,
        aging_s=aging_s,
    )
    print(f"repro-serve listening on {service.address}", flush=True)
    if service.fleet.addrs:
        print(f"repro-serve fleet: {','.join(service.fleet.addrs)}", flush=True)
    if journal_path is not None:
        recovered = service.recovered
        print(
            f"repro-serve journal: {journal_path}"
            + (
                f" (recovered {recovered['records']} records: "
                f"{recovered['done']} done, {recovered['resumed']} resumed, "
                f"{recovered['requeued']} requeued"
                + (", torn tail sealed" if recovered["torn"] else "")
                + ")"
                if recover
                else ""
            ),
            flush=True,
        )
    try:
        service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - operator ctrl-C
        pass
    finally:
        service.stop()
    return 0


def spawn_service(extra_args: Tuple[str, ...] = (), env_extra: Optional[dict] = None):
    """Spawn one ``repro serve`` subprocess on an OS-assigned port.

    Returns ``(proc, addr)`` with the address read from the banner —
    the serve-side mirror of
    :func:`repro.mapreduce.worker.spawn_daemon`.  The child inherits
    this checkout on ``PYTHONPATH``; pass the fleet via
    ``--workers-addrs`` in ``extra_args`` or ``env_extra``.
    """
    import subprocess
    import sys
    from pathlib import Path

    env = os.environ.copy()
    src_dir = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    if "listening on" not in banner:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"query service failed to start: {banner!r}")
    return proc, banner.rsplit(" ", 1)[-1].strip()
