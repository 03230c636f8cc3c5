"""Per-record job specs lifted through the batch runtime, under chunking.

Specs that ship only a per-record ``mapper``/``reducer`` (the shares join
and the calibration shuffle probe) run through ``lift_mapper`` /
``lift_reducer``.  With a parallel backend the map phase cuts every input
file into chunks, so each chunk's records must still see their global
position as ``ctx.record_index`` (the paper's Algorithm 1 id): a chunked
run has to match the serial one bit for bit.
"""

import dataclasses

import pytest

from repro.core.calibration import make_shuffle_probe_job
from repro.joins.records import relation_to_composite_file
from repro.joins.shares import make_shares_join_job
from repro.mapreduce.backend import close_backends, get_backend
from repro.mapreduce.config import ClusterConfig, execution_settings
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapReduceJobSpec, lift_mapper, lift_reducer
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    close_backends()


def shares_spec(cluster):
    relations = {}
    for seed, alias in enumerate("abc"):
        rng = make_rng("lifted-shares", alias)
        relations[alias] = Relation(
            alias.upper(),
            Schema.of("id:int", "x:int", "y:int"),
            [(i, rng.randint(0, 4), rng.randint(0, 4)) for i in range(40 + seed)],
        )
    files = [
        cluster.hdfs.put(relation_to_composite_file(relations[a], a)) for a in "abc"
    ]
    return make_shares_join_job(
        "lifted-shares",
        files,
        [JoinCondition.parse(1, "a.x = b.x"), JoinCondition.parse(2, "b.y = c.y")],
        {a: rel.schema for a, rel in relations.items()},
        total_reducers=8,
    )


def probe_spec(cluster):
    return make_shuffle_probe_job(
        cluster, rows=50, duplication=3, num_reducers=5, bytes_per_row=256
    )


def run_phases(spec):
    """Outputs, per-task costs and metrics of one map + reduce run."""
    cluster = SimulatedCluster(ClusterConfig())
    metrics = JobMetrics(job_name=spec.name)
    buckets, _ = cluster._run_map_phase(spec, metrics)
    outputs, costs = cluster._run_reduce_phase(spec, buckets, metrics)
    return buckets, outputs, costs, metrics


@pytest.mark.parametrize("make_spec", [shares_spec, probe_spec])
def test_chunked_lifted_spec_matches_serial(make_spec, monkeypatch):
    spec = make_spec(SimulatedCluster(ClusterConfig()))
    assert spec.batch_mapper is None and spec.batch_reducer is None

    monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
    serial = run_phases(spec)
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    assert execution_settings().chunk_fanout == 3
    assert get_backend().name == "thread"
    chunked = run_phases(spec)

    serial_buckets, serial_out, serial_costs, serial_metrics = serial
    chunked_buckets, chunked_out, chunked_costs, chunked_metrics = chunked
    assert chunked_buckets == serial_buckets
    for chunked_bucket, serial_bucket in zip(chunked_buckets, serial_buckets):
        assert list(chunked_bucket) == list(serial_bucket)  # key order too
    assert chunked_out == serial_out
    assert chunked_costs == serial_costs
    for counter in (
        "map_output_records",
        "shuffle_bytes",
        "reducer_input_bytes",
        "reduce_comparisons",
    ):
        assert getattr(chunked_metrics, counter) == getattr(serial_metrics, counter)
    assert serial_metrics.map_output_records > 0


def test_chunks_see_global_record_ids(monkeypatch):
    """Every record reaches the mapper with its position in its file."""
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    spec = shares_spec(SimulatedCluster(ClusterConfig()))
    seen = []
    inner = spec.mapper

    def recording_mapper(tag, record, ctx):
        seen.append((tag, ctx.record_index, record))
        return inner(tag, record, ctx)

    run_phases(dataclasses.replace(spec, mapper=recording_mapper))
    for file in spec.inputs:
        ids = sorted((index, record) for tag, index, record in seen if tag == file.tag)
        assert ids == list(enumerate(file.records))


def tiny_spec(**overrides):
    file = DistributedFile(name="in", records=list(range(10)), record_width=8, tag="in")

    def mapper(tag, record, ctx):
        yield record % 3, (tag, ctx.record_index)

    def reducer(key, values, ctx):
        ctx.charge_comparisons(len(values))
        yield key, list(values)

    fields = dict(
        name="tiny", inputs=[file], mapper=mapper, reducer=reducer, num_reducers=3
    )
    fields.update(overrides)
    return MapReduceJobSpec(**fields)


def test_lifted_closures_never_capture_the_spec():
    """Parallel backends ship these closures; the spec's inputs must not
    ride along."""
    spec = tiny_spec()
    for lifted in (lift_mapper(spec), lift_reducer(spec)):
        captured = [cell.cell_contents for cell in lifted.__closure__ or ()]
        assert all(value is not spec for value in captured)
        assert all(value is not spec.inputs for value in captured)


def test_lift_reducer_runs_each_key_group():
    batch = lift_reducer(tiny_spec())(["a", "b"], [1, 2, 3], [0, 2, 3])
    assert batch.outputs == [("a", [1, 2]), ("b", [3])]
    assert batch.comparisons == 3
    assert batch.input_bytes is None
