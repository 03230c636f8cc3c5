"""The simulated MapReduce runtime.

Jobs are *really executed* — mappers and reducers run over the actual
records, so join answers are exact — while time is charged according to
the phase structure of the paper's Figure 3:

* Map tasks run in rounds of ``m'`` parallel tasks over ``m`` blocks;
  each task pays sequential read plus spill-write proportional to its
  output (Equation 1).
* The copy (shuffle) phase pays network transfer plus a per-connection
  overhead ``q * n`` for serving ``n`` reduce tasks (Equation 3), and
  overlaps with mapping per Equation 6.
* The reduce phase is dominated by the most loaded reduce task
  (Equation 5); reduce work includes merge I/O, the user-code comparison
  count charged by join reducers, and writing the output.

With ``noise_sigma == 0`` the runtime is deterministic; benchmarks that
need "measured" times distinct from model estimates use a small sigma.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.mapreduce.backend import get_backend
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.config import ClusterConfig, execution_settings
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.hdfs import DistributedFile, SimulatedHDFS
from repro.mapreduce.job import (
    JobResult,
    MapReduceJobSpec,
    TaskContext,
    estimate_width,
    lift_mapper,
    lift_reducer,
)
from repro.utils import ceil_div, make_rng


class SimulatedCluster:
    """Executes MapReduce jobs over a :class:`SimulatedHDFS` with timing."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.hdfs = SimulatedHDFS(self.config)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_job(
        self,
        spec: MapReduceJobSpec,
        map_units: Optional[int] = None,
        reduce_units: Optional[int] = None,
    ) -> JobResult:
        """Execute ``spec``; returns output file + metrics.

        ``map_units`` / ``reduce_units`` bound the parallel task slots the
        job may use, defaulting to the full cluster.  The scheduler passes
        smaller values when several jobs share the cluster.
        """
        units = self.config.total_units
        map_units = units if map_units is None else map_units
        reduce_units = units if reduce_units is None else reduce_units
        if map_units < 1 or reduce_units < 1:
            raise ExecutionError(f"job {spec.name!r}: units must be >= 1")
        map_units = min(units, map_units)
        reduce_units = min(units, reduce_units)
        if spec.num_reducers > units:
            raise ExecutionError(
                f"job {spec.name!r}: {spec.num_reducers} reducers exceed the "
                f"cluster's {units} processing units"
            )

        metrics = JobMetrics(job_name=spec.name)
        metrics.input_bytes = spec.input_bytes
        metrics.input_records = spec.input_records
        metrics.num_reduce_tasks = spec.num_reducers

        # Cooperative cancellation checkpoints: a serve-session deadline
        # or cancel fires between phases (and between the independent
        # work items inside each phase), never mid-record.
        check_cancelled()
        buckets, _ = self._run_map_phase(spec, metrics)
        check_cancelled()
        output_records, reducer_costs = self._run_reduce_phase(spec, buckets, metrics)
        self._charge_time(spec, metrics, map_units, reduce_units, reducer_costs)

        output = DistributedFile(
            name=spec.output_name,
            records=output_records,
            record_width=spec.output_record_width,
            tag=spec.output_name,
        )
        self.hdfs.put(output)
        metrics.output_records = len(output_records)
        metrics.output_bytes = output.size_bytes * spec.output_replication
        return JobResult(output=output, metrics=metrics)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _run_map_phase(
        self, spec: MapReduceJobSpec, metrics: JobMetrics
    ) -> Tuple[List[Dict[object, List[object]]], TaskContext]:
        """Run all mappers, bucket pairs per reducer; fills size counters.

        Each input file is cut into contiguous chunks; the batch mapper
        (``spec.batch_mapper``, else the lifted per-record ``mapper``)
        turns a chunk into a pre-bucketed :class:`MapBatch`; batches are
        merged into the global buckets strictly in chunk order, so key
        insertion order and per-key value order — hence reducer iteration
        order, metrics, and answers — do not depend on the chunking.
        Chunks are independent, which is what lets them spread over the
        selected execution backend (``REPRO_EXEC_BACKEND``) without
        changing any output — including over TCP to remote worker daemons
        (``REPRO_WORKERS_ADDRS``), whose chunk batches come back
        pickle-round-tripped but are merged by the very same loop.
        """
        block = self.config.hadoop.fs_block_size
        metrics.num_map_tasks = sum(f.blocks(block) for f in spec.inputs)
        if metrics.num_map_tasks == 0:
            raise ExecutionError(f"job {spec.name!r}: all inputs are empty")

        settings = execution_settings()
        fanout = settings.chunk_fanout
        chunks: List[Tuple[str, Sequence[object], int]] = []
        for file in spec.inputs:
            records = file.records
            if not records:
                continue
            if fanout <= 1:
                chunks.append((file.tag, records, 0))
                continue
            per_chunk = max(1, ceil_div(len(records), fanout))
            for start in range(0, len(records), per_chunk):
                chunks.append((file.tag, records[start : start + per_chunk], start))

        batch_mapper = spec.batch_mapper or lift_mapper(spec)

        def map_chunk(index: int):
            # Per-chunk cancellation checkpoint: active when the serial
            # backend (or a local fallback) runs chunks on the session
            # thread; a free no-op on pool/dispatcher threads and inside
            # remote workers, where no token scope exists.
            check_cancelled()
            return batch_mapper(*chunks[index])

        batches = get_backend(settings).run_tasks(map_chunk, len(chunks))

        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(spec.num_reducers)
        ]
        pair_count = 0
        pair_bytes = 0
        for batch in batches:  # deterministic: input/chunk order
            if len(batch.buckets) != spec.num_reducers:
                raise ExecutionError(
                    f"job {spec.name!r}: batch mapper produced "
                    f"{len(batch.buckets)} buckets for {spec.num_reducers} reducers"
                )
            pair_count += batch.pair_count
            pair_bytes += batch.pair_bytes
            for index, chunk_bucket in enumerate(batch.buckets):
                if not chunk_bucket:
                    continue
                bucket = buckets[index]
                if not bucket:
                    # First batch to reach this reducer: adopt its groups
                    # wholesale (chunk buckets are fresh, never shared).
                    buckets[index] = chunk_bucket
                    continue
                for key, values in chunk_bucket.items():
                    existing = bucket.get(key)
                    if existing is None:
                        bucket[key] = values
                    else:
                        existing.extend(values)
        metrics.map_output_records = pair_count
        metrics.map_output_bytes = pair_bytes
        metrics.shuffle_bytes = pair_bytes
        return buckets, TaskContext()

    def _run_reduce_phase(
        self,
        spec: MapReduceJobSpec,
        buckets: List[Dict[object, List[object]]],
        metrics: JobMetrics,
    ) -> Tuple[List[object], List[float]]:
        """Run reducers; returns output records and per-reducer cost seconds.

        Each bucket's key groups are flattened into one value array plus
        group offsets and handed to the batch reducer
        (``spec.batch_reducer``, else the lifted per-group ``reducer``) in
        a single call; the returned :class:`ReduceBatch` carries the
        task's outputs and its comparison count.

        Reduce tasks are independent by construction (each consumes one
        bucket and shares nothing), so whole buckets are dispatched
        through the execution backend and the per-bucket results merged
        in bucket order — counters, costs, and outputs are bit-identical
        across the serial, thread, process, and distributed backends
        (the distributed coordinator additionally promises ordered
        exactly-once folding under worker loss, and degrades to this
        same serial arithmetic when no worker daemons answer).
        """
        batch_reducer = spec.batch_reducer or lift_reducer(spec)
        fixed_width = spec.pair_width
        width_fn = spec.pair_width_fn

        def reduce_bucket(index: int) -> Tuple[List[object], int, int, float]:
            check_cancelled()  # one reduce task is the grain
            bucket = buckets[index]
            keys = list(bucket)
            offsets: List[int] = [0]
            flat: List[object] = []
            for values in bucket.values():
                flat.extend(values)
                offsets.append(len(flat))
            batch = batch_reducer(keys, flat, offsets)
            input_values = len(flat)
            if batch.input_bytes is not None:
                input_bytes = batch.input_bytes
            elif fixed_width:
                input_bytes = fixed_width * input_values
            elif width_fn is not None:
                input_bytes = 12 * input_values + sum(width_fn(v) for v in flat)
            else:
                input_bytes = sum(12 + estimate_width(v) for v in flat)
            cost = self._reduce_task_cost(
                spec, input_bytes, input_values, batch.comparisons, len(batch.outputs)
            )
            return batch.outputs, input_bytes, batch.comparisons, cost

        results = get_backend().run_tasks(reduce_bucket, len(buckets))

        output_records: List[object] = []
        reducer_costs: List[float] = []
        for outputs, input_bytes, comparisons, cost in results:
            output_records.extend(outputs)
            metrics.reducer_input_bytes.append(input_bytes)
            metrics.reduce_comparisons += comparisons
            reducer_costs.append(cost)
        return output_records, reducer_costs

    def _reduce_task_cost(
        self,
        spec: MapReduceJobSpec,
        input_bytes: int,
        input_values: int,
        comparisons: int,
        produced: int,
    ) -> float:
        """One reduce task's simulated seconds (Equation 5's summand):
        merge-sort I/O on the task's input, user CPU, output write."""
        config = self.config
        merge_passes = self._merge_passes(input_bytes)
        io_time = input_bytes * merge_passes * (
            1.0 / config.disk_read_bytes_s + 1.0 / config.disk_write_bytes_s
        )
        cpu_time = (
            input_values * config.cpu_per_record_s
            + comparisons * config.cpu_per_comparison_s
        )
        write_time = (
            produced
            * spec.output_record_width
            * spec.output_replication
            / config.disk_write_bytes_s
        )
        return io_time + cpu_time + write_time

    def _merge_passes(self, input_bytes: int) -> float:
        """How many times reduce input is re-read/written during merge sort."""
        sort_bytes = self.config.hadoop.io_sort_bytes
        if input_bytes <= sort_bytes:
            return 1.0
        # Each factor-of-io.sort.factor growth adds one merge pass.
        extra = math.log(input_bytes / sort_bytes, self.config.hadoop.io_sort_factor)
        return 1.0 + max(0.0, extra)

    # ------------------------------------------------------------------
    # timing (Figure 3 / Equations 1-6)
    # ------------------------------------------------------------------

    def _charge_time(
        self,
        spec: MapReduceJobSpec,
        metrics: JobMetrics,
        map_units: int,
        reduce_units: int,
        reducer_costs: List[float],
    ) -> None:
        config = self.config
        m = metrics.num_map_tasks
        n = spec.num_reducers
        rounds = ceil_div(m, max(1, map_units))
        metrics.map_rounds = rounds
        metrics.reduce_rounds = ceil_div(n, max(1, reduce_units))

        input_per_task = metrics.input_bytes / m
        output_per_task = metrics.map_output_bytes / m
        records_per_task = metrics.input_records / m

        # Equation 1: sequential read plus spill writes.
        spill_passes = self._spill_passes(output_per_task)
        t_map = (
            input_per_task / config.disk_read_bytes_s
            + output_per_task * spill_passes / config.disk_write_bytes_s
            + records_per_task * config.cpu_per_record_s
        )
        j_map = rounds * t_map

        # Equation 3: copying one map task's output to n reducers.
        t_copy = (
            output_per_task / config.network_bytes_s
            + config.connection_overhead_s * n
        )
        j_copy = rounds * t_copy

        # Equation 5 via real per-reducer costs; the slowest schedule of
        # the reduce tasks over the allotted units bounds JR.
        if reducer_costs:
            j_reduce = max(
                sum(reducer_costs) / max(1, reduce_units), max(reducer_costs)
            )
        else:
            j_reduce = 0.0

        # Equation 6: map and copy overlap; the longer stream dominates.
        if t_map >= t_copy:
            body = j_map + t_copy + j_reduce
        else:
            body = t_map + j_copy + j_reduce

        noise = self._noise_factor(spec.name)
        metrics.map_time_s = j_map * noise
        metrics.copy_time_s = j_copy * noise
        metrics.reduce_time_s = j_reduce * noise
        metrics.startup_time_s = config.job_startup_s
        metrics.total_time_s = (body * noise) + config.job_startup_s

    def _spill_passes(self, map_output_per_task: float) -> float:
        """Spill amplification: the paper's random variable p grows with output."""
        threshold = self.config.hadoop.spill_threshold_bytes
        if map_output_per_task <= threshold:
            return 1.0
        return 1.0 + 0.35 * math.log2(map_output_per_task / threshold)

    def _noise_factor(self, job_name: str) -> float:
        sigma = self.config.noise_sigma
        if sigma <= 0:
            return 1.0
        rng = make_rng("runtime-noise", job_name, round(sigma, 6))
        return math.exp(rng.gauss(0.0, sigma))
