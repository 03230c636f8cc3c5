"""Tests for the batched (and shard-parallel) map phase of the runtime."""

import dataclasses

import pytest

from repro.errors import ExecutionError
from repro.mapreduce.config import ClusterConfig, execution_settings
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapBatch, MapReduceJobSpec, default_partitioner
from repro.mapreduce.runtime import SimulatedCluster


def make_spec(num_records=100, num_reducers=4, with_batch=True):
    """A word-count-ish job whose batch mapper mirrors its scalar mapper."""
    records = [f"rec-{i}" for i in range(num_records)]
    file = DistributedFile(name="in", records=records, record_width=64, tag="in")

    def mapper(tag, record, ctx):
        yield ctx.record_index % 7, record

    def reducer(key, values, ctx):
        yield (key, len(values))

    def batch_mapper(tag, records, base_index):
        buckets = [{} for _ in range(num_reducers)]
        for offset, record in enumerate(records):
            key = (base_index + offset) % 7
            bucket = buckets[default_partitioner(key, num_reducers)]
            bucket.setdefault(key, []).append(record)
        pair_bytes = sum(12 + 4 + len(r) for r in records)
        return MapBatch(buckets, len(records), pair_bytes)

    return MapReduceJobSpec(
        name="batchy",
        inputs=[file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        batch_mapper=batch_mapper if with_batch else None,
    )


def run_map(spec):
    cluster = SimulatedCluster(ClusterConfig())
    metrics = JobMetrics(job_name=spec.name)
    buckets, _ = cluster._run_map_phase(spec, metrics)
    return buckets, metrics


class TestBatchedMapPhase:
    def test_matches_scalar_path(self):
        batched_buckets, batched_metrics = run_map(make_spec())
        scalar_buckets, scalar_metrics = run_map(make_spec(with_batch=False))
        assert batched_buckets == scalar_buckets
        for batched, scalar in zip(batched_buckets, scalar_buckets):
            assert list(batched) == list(scalar)  # key insertion order too
        assert batched_metrics.map_output_records == scalar_metrics.map_output_records
        assert batched_metrics.map_output_bytes == scalar_metrics.map_output_bytes
        assert batched_metrics.shuffle_bytes == scalar_metrics.shuffle_bytes

    def test_sharded_matches_serial(self, monkeypatch):
        serial_buckets, serial_metrics = run_map(make_spec())
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert execution_settings().chunk_fanout == 3
        sharded_buckets, sharded_metrics = run_map(make_spec())
        assert sharded_buckets == serial_buckets
        for sharded, serial in zip(sharded_buckets, serial_buckets):
            assert list(sharded) == list(serial)
        assert sharded_metrics.shuffle_bytes == serial_metrics.shuffle_bytes

    def test_wrong_bucket_count_raises(self):
        spec = make_spec()
        bad = dataclasses.replace(
            spec,
            batch_mapper=lambda tag, records, base: MapBatch([{}], 0, 0),
        )
        with pytest.raises(ExecutionError, match="buckets"):
            run_map(bad)

    def test_full_job_identical_result(self):
        cluster = SimulatedCluster(ClusterConfig())
        batched = cluster.run_job(make_spec())
        scalar = SimulatedCluster(ClusterConfig()).run_job(make_spec(with_batch=False))
        assert batched.output.records == scalar.output.records
        assert batched.metrics.total_time_s == scalar.metrics.total_time_s
        assert batched.metrics.shuffle_bytes == scalar.metrics.shuffle_bytes
