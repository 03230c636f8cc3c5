"""MapReduce job specifications for the simulated cluster.

A job is defined exactly the way the paper's programming model describes:
a mapper transforming input records into (key, value) pairs, a partitioner
routing keys to one of ``num_reducers`` reduce tasks, and a reducer
producing output records from each key group.  The reduce-task count is
the single user-supplied scheduling parameter RN(MRJ) the paper optimises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.mapreduce.hdfs import DistributedFile
from repro.utils import stable_hash


class TaskContext:
    """Handed to mapper/reducer callables for cost accounting.

    Reduce-side join implementations call :meth:`charge_comparisons` for
    every candidate tuple combination they test; the runtime converts the
    count into simulated CPU time, which is how reducer-workload balance
    (the paper's core concern) becomes visible in the makespan.
    """

    def __init__(self) -> None:
        self.comparisons: int = 0
        #: Position of the current record within its input file.  This is
        #: the "global ID" of the paper's Algorithm 1: the paper assigns it
        #: by uniform random selection because real mappers lack a global
        #: view; the simulator can hand out exact positions, which realises
        #: the same uniform-unique-id semantics deterministically.
        self.record_index: int = -1

    def charge_comparisons(self, count: int) -> None:
        if count < 0:
            raise ExecutionError("cannot charge a negative comparison count")
        self.comparisons += count


#: mapper(source_tag, record, ctx) -> iterable of (key, value)
Mapper = Callable[[str, object, TaskContext], Iterable[Tuple[object, object]]]
#: reducer(key, values, ctx) -> iterable of output records
Reducer = Callable[[object, List[object], TaskContext], Iterable[object]]
#: partitioner(key, num_reducers) -> reducer index
Partitioner = Callable[[object, int], int]


@dataclass
class MapBatch:
    """Pre-bucketed map output for one chunk of input records.

    ``buckets[r]`` holds the chunk's shuffle groups destined for reduce
    task ``r``, keyed by shuffle key with values in emission order —
    exactly what :func:`lift_mapper` builds pair by pair from the
    per-record mapper, so the runtime merges chunk batches with dict/list
    extends instead of re-routing every pair.  ``pair_count``/
    ``pair_bytes`` carry the chunk's map-output counters (bytes include
    the 12-byte per-pair header).
    """

    buckets: List[Dict[object, List[object]]]
    pair_count: int
    pair_bytes: int


#: batch_mapper(source_tag, records, base_index) -> MapBatch; ``records``
#: is a contiguous slice of the input file starting at ``base_index``.
#: Must emit exactly what the lifted per-record mapper would for the same
#: records, in the same order — the equivalence tests hold it to that.
BatchMapper = Callable[[str, Sequence[object], int], MapBatch]


@dataclass
class ReduceBatch:
    """Batched reduce output for one whole reduce task (bucket).

    ``outputs`` holds the task's output records in the exact order the
    per-record reducer would emit them (key groups in bucket insertion
    order, records in emission order within a group); ``comparisons`` is
    the total it would charge via :meth:`TaskContext.charge_comparisons`
    over the same bucket.  When a batch reducer knows its value widths
    statically it may also fill ``input_bytes`` (the per-value width sum,
    computed arithmetically); leaving it ``None`` makes the runtime sum
    the widths value by value.
    """

    outputs: List[object]
    comparisons: int
    input_bytes: Optional[int] = None


#: batch_reducer(keys, values, group_offsets) -> ReduceBatch.  One call
#: covers one whole reduce task: ``keys[i]`` is the i-th shuffle key in
#: bucket insertion order and its value group is the flat slice
#: ``values[group_offsets[i]:group_offsets[i + 1]]`` (key-major layout —
#: ``len(group_offsets) == len(keys) + 1``).  Must produce exactly what
#: the lifted per-record reducer would for the same bucket; the
#: equivalence suite holds it to that.
BatchReducer = Callable[[Sequence[object], Sequence[object], Sequence[int]], ReduceBatch]


def default_partitioner(key: object, num_reducers: int) -> int:
    """Hadoop's default: stable hash of the key modulo reducer count."""
    if isinstance(key, int) and 0 <= key < num_reducers:
        # Integer keys already in range are used verbatim; this is how the
        # hypercube partitioner addresses components directly.
        return key
    return stable_hash(key, num_reducers)


def estimate_width(value: object) -> int:
    """Serialized-size estimate in bytes for shuffle accounting.

    Mirrors typical Hadoop Writable encodings: 8 bytes per number, the
    character count plus a length header for strings, and the recursive
    sum for tuples/lists with a small container header.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return 4 + len(value)
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (tuple, list)):
        return 4 + sum(estimate_width(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(
            estimate_width(k) + estimate_width(v) for k, v in value.items()
        )
    return 16


@dataclass
class MapReduceJobSpec:
    """Everything needed to run one MapReduce job on the simulator."""

    name: str
    inputs: List[DistributedFile]
    mapper: Mapper
    reducer: Reducer
    num_reducers: int
    partitioner: Partitioner = default_partitioner
    #: Width of one output record in bytes; join outputs pass the real
    #: concatenated row width here.
    output_record_width: int = 64
    #: Replication factor for the job's output (1 for intermediates).
    output_replication: int = 1
    #: Optional fixed width for map-output pairs; when 0 the width is
    #: estimated per pair via :func:`estimate_width`.
    pair_width: int = 0
    #: Optional exact width of a map-output *value* in bytes; overrides the
    #: generic estimate.  Join jobs use this to account for schema-declared
    #: row widths (which may be far larger than the in-memory tuples).
    pair_width_fn: Optional[Callable[[object], int]] = None
    #: Optional vectorized mapper: maps a whole record chunk in one call,
    #: returning pre-bucketed arrays (:class:`MapBatch`).  When absent the
    #: runtime runs ``lift_mapper(spec)``; both must agree exactly (same
    #: buckets, same counters) — ``mapper`` remains the executable
    #: specification.
    batch_mapper: Optional[BatchMapper] = None
    #: Optional vectorized reducer: consumes a whole reduce task's bucket
    #: at once, key-major (flat value array + group offsets), returning
    #: outputs and counters (:class:`ReduceBatch`).  When absent the
    #: runtime runs ``lift_reducer(spec)``; both must agree exactly —
    #: ``reducer`` remains the executable specification.
    batch_reducer: Optional[BatchReducer] = None
    output_name: str = ""

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ExecutionError(
                f"job {self.name!r}: num_reducers must be >= 1, got {self.num_reducers}"
            )
        if not self.inputs:
            raise ExecutionError(f"job {self.name!r}: needs at least one input file")
        if not self.output_name:
            self.output_name = f"{self.name}.out"

    @property
    def input_bytes(self) -> int:
        return sum(f.size_bytes for f in self.inputs)

    @property
    def input_records(self) -> int:
        return sum(f.num_records for f in self.inputs)


def lift_mapper(spec: MapReduceJobSpec) -> BatchMapper:
    """``spec.mapper`` run once per record, as a :data:`BatchMapper`.

    This is the per-record reference lifted through the batch runtime:
    record ``base_index + offset`` of a chunk gets that global id as
    ``ctx.record_index`` (the paper's Algorithm 1 id), so chunking never
    changes what the mapper sees.  The closure captures the callables and
    widths only, never ``spec`` (whose inputs hold every record), because
    parallel backends ship it to workers.
    """
    name = spec.name
    mapper = spec.mapper
    partition = spec.partitioner
    num_reducers = spec.num_reducers
    fixed_width = spec.pair_width
    width_fn = spec.pair_width_fn

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        buckets: List[Dict[object, List[object]]] = [{} for _ in range(num_reducers)]
        ctx = TaskContext()
        pair_count = 0
        pair_bytes = 0
        for offset, record in enumerate(records):
            ctx.record_index = base_index + offset
            for key, value in mapper(tag, record, ctx):
                index = partition(key, num_reducers)
                if not 0 <= index < num_reducers:
                    raise ExecutionError(
                        f"job {name!r}: partitioner returned {index} "
                        f"outside [0, {num_reducers})"
                    )
                bucket = buckets[index]
                values = bucket.get(key)
                if values is None:
                    bucket[key] = [value]
                else:
                    values.append(value)
                pair_count += 1
                if fixed_width:
                    pair_bytes += fixed_width
                elif width_fn is not None:
                    pair_bytes += 12 + width_fn(value)
                else:
                    pair_bytes += 12 + estimate_width(value)
        return MapBatch(buckets, pair_count, pair_bytes)

    return batch_mapper


def lift_reducer(spec: MapReduceJobSpec) -> BatchReducer:
    """``spec.reducer`` run once per key group, as a :data:`BatchReducer`.

    Leaves ``input_bytes`` to the runtime's per-value width sum; like
    :func:`lift_mapper` it never captures ``spec``.
    """
    reducer = spec.reducer

    def batch_reducer(
        keys: Sequence[object], values: Sequence[object], offsets: Sequence[int]
    ) -> ReduceBatch:
        ctx = TaskContext()
        outputs: List[object] = []
        for group, key in enumerate(keys):
            outputs.extend(reducer(key, values[offsets[group] : offsets[group + 1]], ctx))
        return ReduceBatch(outputs, ctx.comparisons)

    return batch_reducer


@dataclass
class JobResult:
    """Output file plus metrics of one simulated job run."""

    output: DistributedFile
    metrics: "JobMetrics"  # noqa: F821  (imported lazily to avoid a cycle)
