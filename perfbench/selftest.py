"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They shrink the batch workloads' row counts so each test takes seconds;
the serve-mix test starts a real ``repro serve`` daemon.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Pinned environment and small inputs; restores ``os.environ``."""
    saved = dict(os.environ)
    monkeypatch.setattr(workloads, "Q2_ROWS", 300)
    monkeypatch.setattr(workloads, "Q34_ROWS", 150)
    monkeypatch.setattr(workloads, "Q34_ROWS_JITTER", 10)
    monkeypatch.setattr(workloads, "Q2_RELATIONS", 2)
    monkeypatch.setattr(workloads, "Q34_PASS", 4)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "SERVE_DATA_SEEDS", 2)
    bench.pin_environment(tmp_path)
    yield tmp_path
    os.environ.clear()
    os.environ.update(saved)


def test_same_seed_same_inputs_other_seed_other_inputs(small):
    assert list(workloads.mobile_calls(300, 7)) == list(workloads.mobile_calls(300, 7))
    assert list(workloads.mobile_calls(300, 7)) != list(workloads.mobile_calls(300, 8))
    for index in range(3):
        assert list(workloads.chain_calls(7, index)) == list(workloads.chain_calls(7, index))
        assert list(workloads.chain_calls(7, index)) != list(workloads.chain_calls(8, index))
    # Every q34-plan pass plans new content.
    assert list(workloads.chain_calls(7, 0)) != list(workloads.chain_calls(7, 1))


@pytest.mark.parametrize("workload", ["q2-merge", "q34-plan"])
def test_same_seed_same_counts(small, workload):
    first, second, other = (
        workloads.WORKLOADS[workload](seed, 0.0, True, small) for seed in (5, 5, 6)
    )
    for result in (first, second, other):
        assert result.failed == 0 and result.attempted >= 1
    assert first.counts == second.counts
    assert first.sim_makespan_s == second.sim_makespan_s
    assert first.counts["core.executor.result_rows"] > 0
    assert first.counts != other.counts
    assert set(first.per_layer()) == set(bench.PER_LAYER_UNITS)
    assert set(first.end_to_end()) == set(bench.END_TO_END_UNITS)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_oracles_match_the_reference_join():
    from repro.joins.records import composites_to_relation
    from repro.joins.reference import reference_join
    from repro.relational.sql import parse_join_query
    from repro.workloads import generate_mobile_calls, make_mobile_query, workload_relations

    def reference_rows(query):
        schemas = {alias: rel.schema for alias, rel in query.relations.items()}
        return oracles.as_multiset(
            composites_to_relation(
                reference_join(query), schemas, name="reference", projection=query.projection
            ).rows
        )

    for seed in (0, 1):
        calls = generate_mobile_calls(120, num_stations=5, num_users=10, seed=seed)
        expected = {
            1: oracles.concurrent_calls(calls, same_station=True),
            2: oracles.concurrent_calls(calls, same_station=False),
            3: oracles.three_day_chains(calls, same_station=True),
            4: oracles.three_day_chains(calls, same_station=False),
        }
        for query_id, answer in expected.items():
            assert sum(answer.values()) > 0
            assert reference_rows(make_mobile_query(query_id, calls)) == answer

    tables = workload_relations("tpch", 0, 3)
    query = parse_join_query(workloads.COL_SQL, tables)
    assert reference_rows(query) == oracles.orders_shipped_after(
        tables["customer"], tables["orders"], tables["lineitem"]
    )


def test_timings_are_in_reference_units(small, monkeypatch):
    monkeypatch.setattr(workloads, "reference_s", lambda: 0.5)
    result = workloads.q2_merge(5, 0.0, False)
    assert result.latencies == [2 * seconds for seconds in result.latencies_s]
    assert result.busy_ref == pytest.approx(2 * result.busy_s)
    assert result.seconds()["reference_s"] == 0.5


def test_corrupted_result_counts_as_failed(small, monkeypatch):
    from repro.core import executor

    materialize = executor.composites_to_relation

    def drop_last_row(*args, **kwargs):
        relation = materialize(*args, **kwargs)
        relation.rows.pop()
        return relation

    monkeypatch.setattr(executor, "composites_to_relation", drop_last_row)
    result = workloads.q2_merge(5, 0.0, False)
    assert result.attempted == result.failed == workloads.Q2_RELATIONS
    assert result.end_to_end()["answered_frac"] == 0.0


def test_refused_serve_submissions_count_against_attempted(small, monkeypatch):
    from repro.client import Client
    from repro.errors import AdmissionRejected

    submit = Client.execute
    calls = itertools.count()

    def refuse_every_third(self, *args, **kwargs):
        if next(calls) % 3 == 2:
            raise AdmissionRejected("refused by the test")
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(Client, "execute", refuse_every_third)
    result = workloads.serve_mix(5, 1.0, False, small / "serve")
    items = len(workloads.MIX) * workloads.SERVE_DATA_SEEDS
    served = result.attempted - items  # minus library-mode answers
    assert served >= 2 * items
    assert result.failed == sum(1 for index in range(served) if index % 3 == 2)
    assert result.end_to_end()["answered_frac"] < 1.0
    # One timed round, with the reference loop timed on either side.
    assert len(result.references) == 2 and result.busy_s >= 1.0


def test_fails_without_the_program(tmp_path):
    """Holding only the benchmark, the runner exits non-zero, no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "q2-merge", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
