"""Tests for the simulated MapReduce runtime (execution + Figure 3 timing)."""

import pytest

from repro.errors import ExecutionError
from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapReduceJobSpec, estimate_width
from repro.mapreduce.runtime import SimulatedCluster
from repro.utils import MB


def word_count_spec(records, num_reducers=4, name="wc"):
    file = DistributedFile("words", records=list(records), record_width=16)

    def mapper(tag, record, ctx):
        for word in record.split():
            yield word, 1

    def reducer(key, values, ctx):
        yield (key, sum(values))

    return MapReduceJobSpec(
        name=name,
        inputs=[file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
    )


class TestExecutionSemantics:
    def test_word_count_is_exact(self):
        cluster = SimulatedCluster()
        spec = word_count_spec(["a b a", "b c", "a"])
        result = cluster.run_job(spec)
        counts = dict(result.output.records)
        assert counts == {"a": 3, "b": 2, "c": 1}

    def test_output_stored_in_hdfs(self):
        cluster = SimulatedCluster()
        result = cluster.run_job(word_count_spec(["x"]))
        assert cluster.hdfs.get(result.output.name) is result.output

    def test_record_index_visible_to_mapper(self, monkeypatch):
        # Observes the mapper through a parent-side list, which only works
        # in-process and in one chunk: pin the serial backend so the test
        # stays valid under a REPRO_EXEC_BACKEND=process run of the suite.
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
        cluster = SimulatedCluster()
        file = DistributedFile("f", records=["a", "b", "c"], record_width=8)
        seen = []

        def mapper(tag, record, ctx):
            seen.append(ctx.record_index)
            return []

        def reducer(key, values, ctx):
            return []

        # One key must be produced to avoid a degenerate job; emit per record.
        def mapper2(tag, record, ctx):
            seen.append(ctx.record_index)
            yield 0, record

        spec = MapReduceJobSpec(
            name="idx", inputs=[file], mapper=mapper2, reducer=reducer,
            num_reducers=1,
        )
        cluster.run_job(spec)
        assert seen == [0, 1, 2]

    def test_partitioner_out_of_range_rejected(self):
        cluster = SimulatedCluster()
        spec = word_count_spec(["a"], num_reducers=2)
        spec.partitioner = lambda key, n: 5
        with pytest.raises(ExecutionError):
            cluster.run_job(spec)

    def test_too_many_reducers_rejected(self):
        cluster = SimulatedCluster()
        with pytest.raises(ExecutionError):
            cluster.run_job(word_count_spec(["a"], num_reducers=10_000))

    def test_empty_input_rejected(self):
        cluster = SimulatedCluster()
        file = DistributedFile("e", records=[], record_width=8)
        spec = MapReduceJobSpec(
            name="empty", inputs=[file],
            mapper=lambda t, r, c: [], reducer=lambda k, v, c: [],
            num_reducers=1,
        )
        with pytest.raises(ExecutionError):
            cluster.run_job(spec)

    def test_comparisons_counted(self):
        cluster = SimulatedCluster()
        file = DistributedFile("f", records=[1, 2, 3], record_width=8)

        def mapper(tag, record, ctx):
            yield 0, record

        def reducer(key, values, ctx):
            ctx.charge_comparisons(len(values) ** 2)
            return []

        spec = MapReduceJobSpec(
            name="cmp", inputs=[file], mapper=mapper, reducer=reducer,
            num_reducers=1,
        )
        metrics = cluster.run_job(spec).metrics
        assert metrics.reduce_comparisons == 9


class TestTimingModel:
    """The Figure 3 phase model: rounds, overlap, skew domination."""

    def _big_file(self, records=64, width=32 * MB):
        return DistributedFile("big", records=list(range(records)), record_width=width)

    def _identity_spec(self, file, num_reducers, name="t"):
        def mapper(tag, record, ctx):
            yield ctx.record_index % num_reducers, record

        def reducer(key, values, ctx):
            return []

        return MapReduceJobSpec(
            name=name, inputs=[file], mapper=mapper, reducer=reducer,
            num_reducers=num_reducers, pair_width=file.record_width + 12,
        )

    def test_map_rounds_counted(self):
        config = ClusterConfig().with_units(8)
        cluster = SimulatedCluster(config)
        file = self._big_file(records=64)  # 2GB -> 32 map tasks
        metrics = cluster.run_job(self._identity_spec(file, 4)).metrics
        assert metrics.num_map_tasks == 32
        assert metrics.map_rounds == 4  # 32 tasks over 8 units

    def test_fewer_units_is_slower(self):
        file = self._big_file()
        fast = SimulatedCluster(ClusterConfig())
        slow = SimulatedCluster(ClusterConfig())
        t_fast = fast.run_job(self._identity_spec(file, 4), map_units=96).metrics
        t_slow = slow.run_job(self._identity_spec(file, 4), map_units=8).metrics
        assert t_slow.total_time_s > t_fast.total_time_s

    def test_startup_included(self):
        cluster = SimulatedCluster()
        metrics = cluster.run_job(word_count_spec(["a"])).metrics
        assert metrics.total_time_s >= cluster.config.job_startup_s

    def test_noise_deterministic_per_job_name(self):
        config = ClusterConfig().with_noise(0.1)
        m1 = SimulatedCluster(config).run_job(word_count_spec(["a b"], name="n1")).metrics
        m2 = SimulatedCluster(config).run_job(word_count_spec(["a b"], name="n1")).metrics
        m3 = SimulatedCluster(config).run_job(word_count_spec(["a b"], name="n3")).metrics
        assert m1.total_time_s == m2.total_time_s
        assert m1.total_time_s != m3.total_time_s

    def test_skewed_reducer_dominates(self):
        cluster = SimulatedCluster()
        file = self._big_file(records=64)

        def skewed_mapper(tag, record, ctx):
            yield 0, record  # everything to reducer 0

        def reducer(key, values, ctx):
            return []

        spec = MapReduceJobSpec(
            name="skew", inputs=[file], mapper=skewed_mapper, reducer=reducer,
            num_reducers=8, pair_width=file.record_width + 12,
        )
        balanced = cluster.run_job(self._identity_spec(file, 8, name="bal"))
        skewed = cluster.run_job(spec)
        assert skewed.metrics.reducer_skew > balanced.metrics.reducer_skew
        assert skewed.metrics.reduce_time_s > balanced.metrics.reduce_time_s

    def test_metrics_ratios(self):
        cluster = SimulatedCluster()
        file = self._big_file(records=16)
        metrics = cluster.run_job(self._identity_spec(file, 4)).metrics
        assert metrics.map_output_ratio == pytest.approx(
            metrics.map_output_bytes / metrics.input_bytes
        )


class TestEstimateWidth:
    def test_primitives(self):
        assert estimate_width(5) == 8
        assert estimate_width(1.5) == 8
        assert estimate_width(True) == 1
        assert estimate_width(None) == 1
        assert estimate_width("abcd") == 8

    def test_containers_recursive(self):
        assert estimate_width((1, 2)) == 4 + 16
        assert estimate_width([1, (2, 3)]) == 4 + 8 + (4 + 16)
