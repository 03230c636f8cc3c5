"""MapReduce join-job builders.

Three physical join operators, all consuming and producing files of
composite records (:mod:`repro.joins.records`):

* :func:`make_hypercube_join_job` — the paper's Algorithm 1: a multi-way
  theta-join in ONE MapReduce job.  Each input file is one dimension of
  the cross-product hyper-cube; tuples are replicated to the Hilbert-curve
  components their grid slab intersects; each reducer evaluates its
  component and outputs only combinations whose joint cell it *owns*
  (exactness + no duplicates).
* :func:`make_equi_join_job` — classic repartition equi-join: the join
  attributes are the shuffle key; residual theta predicates are filtered
  reducer-side.
* :func:`make_broadcast_join_job` — the Hive/Pig-style pair-wise theta
  fallback: the smaller input is replicated to every reducer, the larger
  is hashed uniformly; reducers run a filtered nested loop.

Reducers evaluate multi-way components *progressively* (dimension by
dimension, applying every condition as soon as both its endpoints are
bound) and charge the actually-performed comparisons to the task context,
so reducer workload — the quantity the paper balances — is measured, not
assumed.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro.core.partitioner import HypercubePartitioner
from repro.errors import ExecutionError
from repro.joins.records import (
    Composite,
    composite_width,
    merge_composites,
    rows_by_alias,
)
from repro.mapreduce.config import execution_settings
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapBatch, MapReduceJobSpec, ReduceBatch, TaskContext
from repro.relational.predicates import JoinCondition
from repro.relational.schema import Schema
from repro.utils import stable_hash



def _ready_conditions(
    conditions: Sequence[JoinCondition], bound_aliases: Iterable[str]
) -> List[JoinCondition]:
    bound = set(bound_aliases)
    return [c for c in conditions if set(c.aliases) <= bound]


def _hash_plan_for_step(
    ready: Sequence[JoinCondition],
    bound_aliases: Iterable[str],
    new_aliases: Iterable[str],
):
    """Equality predicates usable as a hash key when binding a new dimension.

    Returns ``(bound_refs, new_refs)`` — attribute references to evaluate
    on the partial result and on the new dimension's candidates — or
    ``None`` when no zero-offset equality predicate crosses the boundary.
    Reducers use this to probe instead of nested-looping, which is what a
    real reduce-side implementation does for the equality part of a theta
    condition; inequality predicates are still checked pair-wise.
    """
    bound = set(bound_aliases)
    new = set(new_aliases)
    bound_refs = []
    new_refs = []
    for condition in ready:
        for predicate in condition.predicates:
            if not predicate.op.is_equality:
                continue
            if predicate.left.offset != 0 or predicate.right.offset != 0:
                continue
            sides = {predicate.left.alias, predicate.right.alias}
            if not (sides & bound and sides & new):
                continue
            if predicate.left.alias in bound:
                bound_refs.append(predicate.left)
                new_refs.append(predicate.right)
            else:
                bound_refs.append(predicate.right)
                new_refs.append(predicate.left)
    if not bound_refs:
        return None
    return bound_refs, new_refs


def _composite_width_fn(schemas_by_alias: Mapping[str, Schema]):
    """Exact serialized width of a composite, from schema-declared row widths.

    Only needed when an input's alias cover varies per record (e.g. the
    share-based operator); jobs with fixed covers precompute constants.
    """
    widths = {alias: schema.row_width for alias, schema in schemas_by_alias.items()}

    def width(composite: Composite) -> int:
        return sum(16 + widths[alias] for alias, _, _ in composite)

    return width


def _resolve_refs(refs, schemas: Mapping[str, Schema]) -> List[Tuple[str, int]]:
    """Attribute references -> ``(alias, column index)`` pairs, resolved ONCE
    at job-build time so per-composite probes skip the schema lookup."""
    return [(ref.alias, schemas[ref.alias].index_of(ref.attr)) for ref in refs]


def _key_values(composite: Composite, specs: Sequence[Tuple[str, int]]):
    rows = rows_by_alias(composite)
    return tuple(rows[alias][index] for alias, index in specs)


def _precomputed_keys(
    file: DistributedFile, specs: Sequence[Tuple[str, int]]
) -> List[Tuple[str, tuple]]:
    """Shuffle key of every record of a composite file, in record order."""
    keys: List[Tuple[str, tuple]] = []
    for record in file.records:
        rows = {alias: row for alias, _, row in record}
        keys.append(("k", tuple(rows[alias][index] for alias, index in specs)))
    return keys


def _range_plan_for_step(
    ready: Sequence[JoinCondition],
    bound_aliases: Iterable[str],
    new_aliases: Iterable[str],
):
    """A sorted-probe plan for inequality predicates binding a new dimension.

    Looks for predicates comparing a bound attribute against a single
    attribute of the new dimension.  Returns ``(probe_ref, bounds)`` where
    ``probe_ref`` is the new-side attribute to sort candidates by and
    ``bounds`` is a list of ``(bound_ref, shift, kind)`` entries with kind
    in {"lower", "lower_eq", "upper", "upper_eq"}: candidate values must
    satisfy ``value > bound_value + shift`` (lower), ``>=`` (lower_eq), etc.
    Returns ``None`` when no such predicate exists.
    """
    from repro.relational.predicates import ThetaOp

    bound = set(bound_aliases)
    new = set(new_aliases)
    by_attr: Dict[Tuple[str, str], List[Tuple[object, float, str]]] = {}
    for condition in ready:
        for predicate in condition.predicates:
            if predicate.op in (ThetaOp.EQ, ThetaOp.NE):
                continue
            sides = {predicate.left.alias, predicate.right.alias}
            if not (sides & bound and sides & new):
                continue
            bound_alias = (
                predicate.left.alias
                if predicate.left.alias in bound
                else predicate.right.alias
            )
            oriented = predicate.oriented(bound_alias)
            bound_ref, new_ref = oriented.left, oriented.right
            # (bound_val + lo) op (new_val + ro)  <=>  new_val op' bound_val + shift
            shift = bound_ref.offset - new_ref.offset
            kind = {
                ThetaOp.LT: "lower",      # new > bound + shift
                ThetaOp.LE: "lower_eq",   # new >= bound + shift
                ThetaOp.GT: "upper",      # new < bound + shift
                ThetaOp.GE: "upper_eq",   # new <= bound + shift
            }[oriented.op]
            by_attr.setdefault((new_ref.alias, new_ref.attr), []).append(
                (bound_ref, shift, kind)
            )
    if not by_attr:
        return None
    # Probe on the attribute with the most constraints (tightest range).
    key = max(by_attr, key=lambda k: len(by_attr[k]))
    from repro.relational.predicates import AttrRef

    return AttrRef(key[0], key[1]), by_attr[key]


def _check(
    conditions: Sequence[JoinCondition],
    composite: Composite,
    schemas: Mapping[str, Schema],
) -> bool:
    if not conditions:
        return True
    rows = rows_by_alias(composite)
    return all(c.evaluate(rows, schemas) for c in conditions)


def _compile_checks(
    conditions: Sequence[JoinCondition], schemas: Mapping[str, Schema]
) -> Callable[[Composite], bool]:
    """Compile a condition conjunction into one composite -> bool callable.

    Attribute indices and operator functions are resolved once at job
    build time; predicates are evaluated in the exact order (and with the
    exact short-circuiting) of :func:`_check`, so the result is
    bit-identical while skipping the per-call schema lookups.
    """
    compiled = [
        (
            p.left.alias,
            schemas[p.left.alias].index_of(p.left.attr),
            p.left.offset,
            p.op.as_function,
            p.right.alias,
            schemas[p.right.alias].index_of(p.right.attr),
            p.right.offset,
        )
        for c in conditions
        for p in c.predicates
    ]

    if not compiled:
        return lambda composite: True

    def check(composite: Composite) -> bool:
        rows = {alias: row for alias, _, row in composite}
        for l_alias, l_idx, l_off, compare, r_alias, r_idx, r_off in compiled:
            left_value = rows[l_alias][l_idx]
            if l_off:
                left_value = left_value + l_off
            right_value = rows[r_alias][r_idx]
            if r_off:
                right_value = right_value + r_off
            if not compare(left_value, right_value):
                return False
        return True

    return check


# ---------------------------------------------------------------------------
# Batched reduce-side machinery: position-compiled covers
#
# Every composite flowing through one join job covers a *statically known*
# alias set (each input's cover is fixed, and the progressive join binds
# dimensions in a fixed order), so the partial composite entering step s
# always is an alias-sorted tuple over a known cover.  That turns every
# per-composite dict build of the scalar reducer (``rows_by_alias``,
# ``merge_composites``, ``_key_values``) into tuple indexing compiled once
# at job-build time.  Batch reducers are only installed when the input
# covers are pairwise disjoint — the invariant that makes the compiled
# merge exact; otherwise the runtime lifts the per-record reducer.
# ---------------------------------------------------------------------------

#: Candidate-count threshold above which sorted probes go through NumPy,
#: and pair-count threshold above which condition checks do.  The values
#: live in :class:`repro.mapreduce.config.ExecutionSettings`
#: (``REPRO_NP_MIN_PROBE`` / ``REPRO_NP_MIN_PAIRS``); they are snapshotted
#: into module globals because the comparison sits in per-group inner
#: loops.  Call :func:`refresh_np_gates` after changing the environment.
_NP_MIN_PROBE = 128
_NP_MIN_PAIRS = 256


def refresh_np_gates() -> None:
    """Re-read the NumPy size gates from the environment.

    Already-built jobs pick the new values up too: their compiled
    closures read the module globals at call time.
    """
    global _NP_MIN_PROBE, _NP_MIN_PAIRS
    settings = execution_settings()
    _NP_MIN_PROBE = settings.np_min_probe
    _NP_MIN_PAIRS = settings.np_min_pairs


refresh_np_gates()


def _merge_spec(bound_cover: Sequence[str], new_cover: Sequence[str]):
    """Precomputed entry picks realising ``merge_composites`` for two
    alias-sorted composites over statically known covers: ``(source,
    position)`` per merged entry, source 0 = accumulated, 1 = candidate.
    Aliases present in both covers keep the accumulated side's entry,
    exactly like ``merge_composites`` (callers that cannot guarantee
    shared aliases agree on global ids must not use the spec)."""
    bound_pos = {alias: i for i, alias in enumerate(bound_cover)}
    new_pos = {alias: i for i, alias in enumerate(new_cover)}
    return tuple(
        (0, bound_pos[alias]) if alias in bound_pos else (1, new_pos[alias])
        for alias in sorted(set(bound_cover) | set(new_cover))
    )


def _compile_pair_checks(
    conditions: Sequence[JoinCondition],
    schemas: Mapping[str, Schema],
    bound_cover: Sequence[str],
    new_cover: Sequence[str],
):
    """Compile a conjunction into (accumulated, candidate) pair form.

    Each predicate endpoint resolves to ``(source, entry position, column
    index, offset)`` — source 0 reads the accumulated composite (covering
    ``bound_cover``), 1 the candidate (covering ``new_cover``) — so the
    check runs *before* the merged composite is built, on tuple indexing
    alone.  Predicate order and operators match :func:`_compile_checks`
    exactly.  Returns ``None`` for an empty conjunction.
    """
    bound_pos = {alias: i for i, alias in enumerate(bound_cover)}
    new_pos = {alias: i for i, alias in enumerate(new_cover)}

    def resolve(ref):
        if ref.alias in bound_pos:
            return 0, bound_pos[ref.alias]
        return 1, new_pos[ref.alias]

    compiled = []
    for condition in conditions:
        for p in condition.predicates:
            ls, lp = resolve(p.left)
            rs, rp = resolve(p.right)
            compiled.append(
                (
                    ls,
                    lp,
                    schemas[p.left.alias].index_of(p.left.attr),
                    p.left.offset,
                    p.op.as_function,
                    rs,
                    rp,
                    schemas[p.right.alias].index_of(p.right.attr),
                    p.right.offset,
                )
            )
    return compiled or None


def _pair_passes(checks, acc: Composite, cand: Composite) -> bool:
    """Evaluate compiled pair checks with scalar short-circuiting."""
    for ls, lp, li, lo, compare, rs, rp, ri, ro in checks:
        left_value = (acc if ls == 0 else cand)[lp][2][li]
        if lo:
            left_value = left_value + lo
        right_value = (acc if rs == 0 else cand)[rp][2][ri]
        if ro:
            right_value = right_value + ro
        if not compare(left_value, right_value):
            return False
    return True


def _np_pair_mask(checks, accs: Sequence[Composite], cands: Sequence[Composite]):
    """Accumulated-major boolean mask of passing pairs, or ``None``.

    Vectorizes the compiled pair conjunction over the full cross product
    with NumPy; bails out (``None``) whenever a column is not cleanly
    vectorizable (object dtype, or an offset on a non-numeric column), in
    which case callers run the scalar pair loop.  Conjunction of pure
    predicates, so evaluation order cannot change the mask.
    """
    num_cands = len(cands)
    mask = None
    for ls, lp, li, lo, compare, rs, rp, ri, ro in checks:
        left = _np.asarray([c[lp][2][li] for c in (accs if ls == 0 else cands)])
        if left.dtype == object or (lo and not _np.issubdtype(left.dtype, _np.number)):
            return None
        right = _np.asarray([c[rp][2][ri] for c in (accs if rs == 0 else cands)])
        if right.dtype == object or (
            ro and not _np.issubdtype(right.dtype, _np.number)
        ):
            return None
        if lo:
            left = left + lo
        if ro:
            right = right + ro
        left = _np.repeat(left, num_cands) if ls == 0 else _np.tile(left, len(accs))
        right = (
            _np.repeat(right, num_cands) if rs == 0 else _np.tile(right, len(accs))
        )
        term = compare(left, right)
        mask = term if mask is None else (mask & term)
    return mask


#: Hash space for ranking keys; any fixed size far above key counts works.
_SPREAD_SPACE = 1 << 61


def make_keyspread_partitioner(keys: Iterable[object], num_reducers: int):
    """Rank-balanced key -> reducer map over a *known* key population.

    The simulator's scaling substitution makes every record — and every
    shuffle key — stand for a large population of real ones, so modelling
    key placement as ``hash(key) % n`` over a few dozen simulated keys
    overstates reducer imbalance by orders of magnitude: real Hadoop
    hashes millions of keys into the same reduce tasks and lands within a
    fraction of a percent of perfect balance, unless the data itself is
    skewed.  This partitioner reproduces that behaviour at simulation
    granularity: keys are ranked by their (deterministic) hash and the
    ranks spread evenly over the reducers.  It stays *skew-oblivious* —
    a hot key's whole group still lands on one reducer, which is exactly
    the skew the paper's balanced partitioning is measured against; only
    the artificial collision noise of coarse-grained keys is removed.

    Returns ``(partitioner, mapping)`` — the mapping is shared with batch
    mappers so scalar and batched routing are the same table lookup.
    """
    ranked = sorted(
        set(keys), key=lambda key: (stable_hash(key, _SPREAD_SPACE), repr(key))
    )
    count = len(ranked)
    if count == 0:
        from repro.mapreduce.job import default_partitioner

        return default_partitioner, {}
    mapping = {key: (rank * num_reducers) // count for rank, key in enumerate(ranked)}

    def partition(key: object, _num_reducers: int) -> int:
        return mapping[key]

    return partition, mapping


# ---------------------------------------------------------------------------
# Algorithm 1: multi-way theta-join in one MapReduce job
# ---------------------------------------------------------------------------

def make_hypercube_join_job(
    name: str,
    dim_files: Sequence[DistributedFile],
    dim_aliases: Sequence[Tuple[str, ...]],
    partitioner: HypercubePartitioner,
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    output_name: str = "",
) -> MapReduceJobSpec:
    """One-MRJ multi-way theta-join over the hyper-cube partition.

    ``dim_files[i]`` is dimension ``i`` of the cube; its records must be
    composites covering exactly the aliases in ``dim_aliases[i]``.  The
    partitioner's cardinalities must equal the file record counts.
    """
    if len(dim_files) != partitioner.dims:
        raise ExecutionError(
            f"job {name!r}: {len(dim_files)} inputs but partitioner has "
            f"{partitioner.dims} dimensions"
        )
    if len(dim_aliases) != len(dim_files):
        raise ExecutionError(f"job {name!r}: dim_aliases arity mismatch")
    for index, file in enumerate(dim_files):
        if file.num_records != partitioner.cardinalities[index]:
            raise ExecutionError(
                f"job {name!r}: input {file.name!r} has {file.num_records} "
                f"records but partitioner expects {partitioner.cardinalities[index]}"
            )

    dim_of_tag = {file.tag: index for index, file in enumerate(dim_files)}
    if len(dim_of_tag) != len(dim_files):
        raise ExecutionError(f"job {name!r}: input files must carry distinct tags")

    all_aliases: List[str] = sorted({a for group in dim_aliases for a in group})
    output_width = composite_width(schemas_by_alias, all_aliases)

    # Conditions that become checkable after each progressive step, given
    # the fixed dimension order 0, 1, ..., m-1.
    ready_at_step: List[List[JoinCondition]] = []
    seen_conditions: set = set()
    bound: set = set()
    for step in range(len(dim_files)):
        bound.update(dim_aliases[step])
        ready = [
            c
            for c in conditions
            if id(c) not in seen_conditions and set(c.aliases) <= bound
        ]
        seen_conditions.update(id(c) for c in ready)
        ready_at_step.append(ready)

    # Probe plans are static per step (they depend only on the condition
    # set and dimension order), so build them ONCE with attribute indices
    # resolved, instead of re-deriving them inside every reducer call.
    step_plans: List[Optional[tuple]] = [None]
    for step in range(1, len(dim_files)):
        ready = ready_at_step[step]
        bound_aliases = {a for group in dim_aliases[:step] for a in group}
        hash_plan = _hash_plan_for_step(ready, bound_aliases, dim_aliases[step])
        if hash_plan is not None:
            bound_refs, new_refs = hash_plan
            step_plans.append(
                (
                    "hash",
                    _resolve_refs(bound_refs, schemas_by_alias),
                    _resolve_refs(new_refs, schemas_by_alias),
                )
            )
            continue
        range_plan = _range_plan_for_step(ready, bound_aliases, dim_aliases[step])
        if range_plan is not None:
            probe_ref, bounds = range_plan
            step_plans.append(
                (
                    "range",
                    (
                        probe_ref.alias,
                        schemas_by_alias[probe_ref.alias].index_of(probe_ref.attr),
                    ),
                    [
                        (
                            bound_ref.alias,
                            schemas_by_alias[bound_ref.alias].index_of(
                                bound_ref.attr
                            ),
                            shift,
                            kind,
                        )
                        for bound_ref, shift, kind in bounds
                    ],
                )
            )
            continue
        step_plans.append(None)

    # Table-driven routing/ownership: record counts were validated against
    # the cardinalities above, so the mapper and the ownership check can
    # use the partitioner's precomputed arrays without per-record checks.
    slab_components = partitioner.slab_components()
    cell_widths = partitioner.cell_widths
    slab_top = tuple(u - 1 for u in partitioner.used_side)
    owner_of_ids = partitioner.owner_of_ids
    num_dims = partitioner.dims
    num_components = partitioner.num_components

    # Every dimension's composites cover exactly dim_aliases[dim], so the
    # shuffle-pair width is a fixed per-dimension constant.
    row_widths = {
        alias: schema.row_width for alias, schema in schemas_by_alias.items()
    }
    dim_value_width = [
        16 + sum(16 + row_widths[alias] for alias in group)
        for group in dim_aliases
    ]

    def mapper(tag: str, record: object, ctx: TaskContext):
        dim = dim_of_tag[tag]
        slab = ctx.record_index // cell_widths[dim]
        if slab > slab_top[dim]:
            slab = slab_top[dim]
        gid = ctx.record_index
        for component in slab_components[dim][slab]:
            yield component, (dim, gid, record)

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        """Route a whole record chunk through the flat slab tables.

        Contiguous global ids share a grid slab, so routing happens per
        *span* of records instead of per record: each span's value tuples
        are built once and shared by every component the slab intersects
        (the scalar path allocates one tuple per emitted pair).
        """
        dim = dim_of_tag[tag]
        width = cell_widths[dim]
        top = slab_top[dim]
        components_of_slab = slab_components[dim]
        pair_width = 12 + dim_value_width[dim]
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_components)
        ]
        count = len(records)
        # (slab, lo, hi) spans in chunk-local coordinates; slabs clamp to
        # the top used slab exactly as the scalar mapper does.
        spans: List[Tuple[int, int, int]] = []
        if count > 1024:
            slabs = _np.minimum(
                _np.arange(base_index, base_index + count) // width, top
            )
            breaks = _np.flatnonzero(slabs[1:] != slabs[:-1]) + 1
            edges = [0, *breaks.tolist(), count]
            spans = [
                (int(slabs[edges[i]]), edges[i], edges[i + 1])
                for i in range(len(edges) - 1)
            ]
        else:
            lo = 0
            while lo < count:
                slab = (base_index + lo) // width
                if slab >= top:
                    spans.append((top, lo, count))
                    break
                hi = min(count, (slab + 1) * width - base_index)
                spans.append((slab, lo, hi))
                lo = hi
        pair_count = 0
        for slab, lo, hi in spans:
            values = [
                (dim, base_index + position, records[position])
                for position in range(lo, hi)
            ]
            components = components_of_slab[slab]
            pair_count += (hi - lo) * len(components)
            first = True
            for component in components:
                bucket = buckets[component]
                existing = bucket.get(component)
                if existing is not None:
                    existing.extend(values)
                elif first:
                    bucket[component] = values
                else:
                    bucket[component] = list(values)
                first = False
        return MapBatch(buckets, pair_count, pair_count * pair_width)

    # Progressive-check conjunctions compiled once per step (resolved
    # attribute indices + operator functions; bit-identical to _check).
    step_checks = [
        _compile_checks(ready, schemas_by_alias) for ready in ready_at_step
    ]

    def reducer(component: object, values: List[object], ctx: TaskContext):
        per_dim: List[List[Tuple[int, Composite]]] = [
            [] for _ in range(num_dims)
        ]
        for dim, gid, composite in values:
            per_dim[dim].append((gid, composite))
        # Progressive join: (per-dim ids so far, merged composite).
        partial: List[Tuple[Tuple[int, ...], Composite]] = [((), ())]
        for step, candidates in enumerate(per_dim):
            if not candidates:
                return
            ready_check = step_checks[step]
            plan = step_plans[step]
            grown: List[Tuple[Tuple[int, ...], Composite]] = []
            if plan is not None and plan[0] == "hash":
                # Probe by the equality part of the theta condition; only
                # same-key candidates are tested pair-wise.
                _kind, bound_specs, new_specs = plan
                index: Dict[Tuple[object, ...], List[Tuple[int, Composite]]] = {}
                for gid, composite in candidates:
                    index.setdefault(
                        _key_values(composite, new_specs), []
                    ).append((gid, composite))
                for ids, accumulated in partial:
                    key = _key_values(accumulated, bound_specs)
                    for gid, composite in index.get(key, ()):
                        ctx.charge_comparisons(1)
                        merged = merge_composites(accumulated, composite)
                        if merged is None:
                            continue
                        if ready_check(merged):
                            grown.append((ids + (gid,), merged))
            elif plan is not None:
                # Sort once by the probed attribute, then bisect the value
                # interval implied by each partial's bound attributes.
                _kind, (probe_alias, probe_idx), bounds = plan
                decorated = sorted(
                    (
                        (
                            rows_by_alias(composite)[probe_alias][probe_idx],
                            gid,
                            composite,
                        )
                        for gid, composite in candidates
                    ),
                    key=lambda item: item[0],
                )
                values = [item[0] for item in decorated]
                for ids, accumulated in partial:
                    rows = rows_by_alias(accumulated)
                    lo, hi = 0, len(decorated)
                    for bound_alias, bound_idx, shift, kind in bounds:
                        bound_value = rows[bound_alias][bound_idx] + shift
                        if kind == "lower":
                            lo = max(lo, bisect.bisect_right(values, bound_value))
                        elif kind == "lower_eq":
                            lo = max(lo, bisect.bisect_left(values, bound_value))
                        elif kind == "upper":
                            hi = min(hi, bisect.bisect_left(values, bound_value))
                        else:  # upper_eq
                            hi = min(hi, bisect.bisect_right(values, bound_value))
                    for position in range(lo, hi):
                        _, gid, composite = decorated[position]
                        ctx.charge_comparisons(1)
                        merged = merge_composites(accumulated, composite)
                        if merged is None:
                            continue
                        if ready_check(merged):
                            grown.append((ids + (gid,), merged))
            else:
                for ids, accumulated in partial:
                    for gid, composite in candidates:
                        ctx.charge_comparisons(1)
                        merged = merge_composites(accumulated, composite)
                        if merged is None:
                            continue
                        if ready_check(merged):
                            grown.append((ids + (gid,), merged))
            partial = grown
            if not partial:
                return
        for ids, merged in partial:
            # Ownership rule: output only combinations whose joint grid
            # cell falls in this reducer's curve segment (two array
            # lookups through the precomputed ownership table).
            if owner_of_ids(ids) == component:
                yield merged

    def value_width(value: object) -> int:
        return dim_value_width[value[0]]  # type: ignore[index]

    # ---- batched reduce side: the same progressive join, with the probe
    # plans compiled onto positional covers (requires pairwise-disjoint
    # dimension covers; otherwise the runtime lifts ``reducer``).
    batch_reducer = None
    dim_covers = [tuple(sorted(group)) for group in dim_aliases]
    flat_cover = [alias for cover in dim_covers for alias in cover]
    if len(set(flat_cover)) == len(flat_cover):
        cover_before: List[Tuple[str, ...]] = []
        acc_cover: List[str] = []
        for cover in dim_covers:
            cover_before.append(tuple(acc_cover))
            acc_cover = sorted(acc_cover + list(cover))
        merge_specs = [
            None if step == 0 else _merge_spec(cover_before[step], dim_covers[step])
            for step in range(num_dims)
        ]
        pair_checks = [
            _compile_pair_checks(
                ready_at_step[step],
                schemas_by_alias,
                cover_before[step],
                dim_covers[step],
            )
            for step in range(num_dims)
        ]
        compiled_plans: List[Optional[tuple]] = []
        for step in range(num_dims):
            plan = step_plans[step]
            if plan is None:
                compiled_plans.append(None)
                continue
            bound_pos = {a: i for i, a in enumerate(cover_before[step])}
            new_pos = {a: i for i, a in enumerate(dim_covers[step])}
            if plan[0] == "hash":
                _kind, bound_specs, new_specs = plan
                compiled_plans.append(
                    (
                        "hash",
                        tuple((bound_pos[a], idx) for a, idx in bound_specs),
                        tuple((new_pos[a], idx) for a, idx in new_specs),
                    )
                )
            else:
                _kind, (probe_alias, probe_idx), bounds = plan
                compiled_plans.append(
                    (
                        "range",
                        (new_pos[probe_alias], probe_idx),
                        tuple(
                            (bound_pos[a], idx, shift, kind)
                            for a, idx, shift, kind in bounds
                        ),
                    )
                )

        def hypercube_batch_reducer(keys, values, offsets) -> ReduceBatch:
            outputs: List[object] = []
            comparisons = 0
            dim_counts = [0] * num_dims
            for g in range(len(keys)):
                component = keys[g]
                per_dim_gids: List[List[int]] = [[] for _ in range(num_dims)]
                per_dim_comps: List[List[Composite]] = [[] for _ in range(num_dims)]
                for i in range(offsets[g], offsets[g + 1]):
                    dim, gid, composite = values[i]
                    per_dim_gids[dim].append(gid)
                    per_dim_comps[dim].append(composite)
                for d in range(num_dims):
                    dim_counts[d] += len(per_dim_gids[d])
                ids_list: List[Tuple[int, ...]] = []
                comps_list: List[Composite] = []
                alive = True
                for step in range(num_dims):
                    cand_gids = per_dim_gids[step]
                    cand_comps = per_dim_comps[step]
                    if not cand_gids:
                        alive = False
                        break
                    checks = pair_checks[step]
                    if step == 0:
                        comparisons += len(cand_gids)
                        if checks is None:
                            ids_list = [(gid,) for gid in cand_gids]
                            comps_list = list(cand_comps)
                        else:
                            ids_list = []
                            comps_list = []
                            for gid, comp in zip(cand_gids, cand_comps):
                                if _pair_passes(checks, (), comp):
                                    ids_list.append((gid,))
                                    comps_list.append(comp)
                        if not ids_list:
                            alive = False
                            break
                        continue
                    plan = compiled_plans[step]
                    mspec = merge_specs[step]
                    grown_ids: List[Tuple[int, ...]] = []
                    grown_comps: List[Composite] = []
                    if plan is not None and plan[0] == "hash":
                        _kind, bound_specs, new_specs = plan
                        index: Dict[object, List[int]] = {}
                        if len(new_specs) == 1:
                            (new_p, new_c), = new_specs
                            (bound_p, bound_c), = bound_specs
                            # NumPy hash probe for big single-column keys:
                            # equality is the [left, right) searchsorted
                            # window over stably key-sorted candidates —
                            # equal-key candidates keep their input order,
                            # so emission matches the dict probe exactly.
                            use_np = False
                            if len(cand_comps) >= _NP_MIN_PROBE:
                                arr = _np.asarray(
                                    [comp[new_p][2][new_c] for comp in cand_comps]
                                )
                                use_np = _np.issubdtype(arr.dtype, _np.number)
                            if use_np:
                                bvals = _np.asarray(
                                    [acc[bound_p][2][bound_c] for acc in comps_list]
                                )
                                use_np = _np.issubdtype(bvals.dtype, _np.number)
                            if use_np:
                                np_order = _np.argsort(arr, kind="stable")
                                sorted_keys = arr[np_order]
                                lo_list = _np.searchsorted(
                                    sorted_keys, bvals, side="left"
                                ).tolist()
                                hi_list = _np.searchsorted(
                                    sorted_keys, bvals, side="right"
                                ).tolist()
                                order = np_order.tolist()
                                for j, acc in enumerate(comps_list):
                                    lo, hi = lo_list[j], hi_list[j]
                                    if lo >= hi:
                                        continue
                                    comparisons += hi - lo
                                    ids = ids_list[j]
                                    for t in range(lo, hi):
                                        i = order[t]
                                        cand = cand_comps[i]
                                        if checks is None or _pair_passes(
                                            checks, acc, cand
                                        ):
                                            grown_ids.append(ids + (cand_gids[i],))
                                            grown_comps.append(
                                                tuple(
                                                    acc[p] if s == 0 else cand[p]
                                                    for s, p in mspec
                                                )
                                            )
                            else:
                                for i, comp in enumerate(cand_comps):
                                    index.setdefault(
                                        comp[new_p][2][new_c], []
                                    ).append(i)
                                for j, acc in enumerate(comps_list):
                                    matches = index.get(acc[bound_p][2][bound_c])
                                    if not matches:
                                        continue
                                    comparisons += len(matches)
                                    ids = ids_list[j]
                                    for i in matches:
                                        cand = cand_comps[i]
                                        if checks is None or _pair_passes(
                                            checks, acc, cand
                                        ):
                                            grown_ids.append(ids + (cand_gids[i],))
                                            grown_comps.append(
                                                tuple(
                                                    acc[p] if s == 0 else cand[p]
                                                    for s, p in mspec
                                                )
                                            )
                        else:
                            for i, comp in enumerate(cand_comps):
                                index.setdefault(
                                    tuple(comp[p][2][c] for p, c in new_specs), []
                                ).append(i)
                            for j, acc in enumerate(comps_list):
                                matches = index.get(
                                    tuple(acc[p][2][c] for p, c in bound_specs)
                                )
                                if not matches:
                                    continue
                                comparisons += len(matches)
                                ids = ids_list[j]
                                for i in matches:
                                    cand = cand_comps[i]
                                    if checks is None or _pair_passes(
                                        checks, acc, cand
                                    ):
                                        grown_ids.append(ids + (cand_gids[i],))
                                        grown_comps.append(
                                            tuple(
                                                acc[p] if s == 0 else cand[p]
                                                for s, p in mspec
                                            )
                                        )
                    elif plan is not None:
                        _kind, (probe_pos, probe_idx), bounds = plan
                        vals = [comp[probe_pos][2][probe_idx] for comp in cand_comps]
                        count = len(vals)
                        lo_list: List[int]
                        hi_list: List[int]
                        use_np = False
                        if count >= _NP_MIN_PROBE:
                            arr = _np.asarray(vals)
                            use_np = _np.issubdtype(arr.dtype, _np.number)
                        if use_np:
                            bound_cols = []
                            for bound_p, bound_c, shift, kind in bounds:
                                bvals = _np.asarray(
                                    [acc[bound_p][2][bound_c] for acc in comps_list]
                                )
                                if not _np.issubdtype(bvals.dtype, _np.number):
                                    use_np = False
                                    break
                                bound_cols.append((bvals + shift, kind))
                        if use_np:
                            np_order = _np.argsort(arr, kind="stable")
                            sorted_vals = arr[np_order]
                            lo_arr = _np.zeros(len(comps_list), dtype=_np.int64)
                            hi_arr = _np.full(len(comps_list), count, dtype=_np.int64)
                            for bvals, kind in bound_cols:
                                if kind == "lower":
                                    edge = _np.searchsorted(sorted_vals, bvals, side="right")
                                    _np.maximum(lo_arr, edge, out=lo_arr)
                                elif kind == "lower_eq":
                                    edge = _np.searchsorted(sorted_vals, bvals, side="left")
                                    _np.maximum(lo_arr, edge, out=lo_arr)
                                elif kind == "upper":
                                    edge = _np.searchsorted(sorted_vals, bvals, side="left")
                                    _np.minimum(hi_arr, edge, out=hi_arr)
                                else:  # upper_eq
                                    edge = _np.searchsorted(sorted_vals, bvals, side="right")
                                    _np.minimum(hi_arr, edge, out=hi_arr)
                            order = np_order.tolist()
                            lo_list = lo_arr.tolist()
                            hi_list = hi_arr.tolist()
                        else:
                            order = sorted(range(count), key=vals.__getitem__)
                            sorted_py = [vals[i] for i in order]
                            lo_list = []
                            hi_list = []
                            for acc in comps_list:
                                lo, hi = 0, count
                                for bound_p, bound_c, shift, kind in bounds:
                                    bound_value = acc[bound_p][2][bound_c] + shift
                                    if kind == "lower":
                                        lo = max(lo, bisect.bisect_right(sorted_py, bound_value))
                                    elif kind == "lower_eq":
                                        lo = max(lo, bisect.bisect_left(sorted_py, bound_value))
                                    elif kind == "upper":
                                        hi = min(hi, bisect.bisect_left(sorted_py, bound_value))
                                    else:  # upper_eq
                                        hi = min(hi, bisect.bisect_right(sorted_py, bound_value))
                                lo_list.append(lo)
                                hi_list.append(hi)
                        for j, acc in enumerate(comps_list):
                            lo, hi = lo_list[j], hi_list[j]
                            if lo >= hi:
                                continue
                            comparisons += hi - lo
                            ids = ids_list[j]
                            for t in range(lo, hi):
                                i = order[t]
                                cand = cand_comps[i]
                                if checks is None or _pair_passes(checks, acc, cand):
                                    grown_ids.append(ids + (cand_gids[i],))
                                    grown_comps.append(
                                        tuple(
                                            acc[p] if s == 0 else cand[p]
                                            for s, p in mspec
                                        )
                                    )
                    else:
                        num_cands = len(cand_gids)
                        comparisons += len(ids_list) * num_cands
                        mask = None
                        if (
                            checks is not None
                            and len(ids_list) * num_cands >= _NP_MIN_PAIRS
                        ):
                            mask = _np_pair_mask(checks, comps_list, cand_comps)
                        if mask is not None:
                            for k in _np.flatnonzero(mask).tolist():
                                j, i = divmod(k, num_cands)
                                acc = comps_list[j]
                                cand = cand_comps[i]
                                grown_ids.append(ids_list[j] + (cand_gids[i],))
                                grown_comps.append(
                                    tuple(
                                        acc[p] if s == 0 else cand[p]
                                        for s, p in mspec
                                    )
                                )
                        else:
                            for j, acc in enumerate(comps_list):
                                ids = ids_list[j]
                                for i in range(num_cands):
                                    cand = cand_comps[i]
                                    if checks is None or _pair_passes(
                                        checks, acc, cand
                                    ):
                                        grown_ids.append(ids + (cand_gids[i],))
                                        grown_comps.append(
                                            tuple(
                                                acc[p] if s == 0 else cand[p]
                                                for s, p in mspec
                                            )
                                        )
                    ids_list = grown_ids
                    comps_list = grown_comps
                    if not ids_list:
                        alive = False
                        break
                if not alive or not ids_list:
                    continue
                for j, ids in enumerate(ids_list):
                    if owner_of_ids(ids) == component:
                        outputs.append(comps_list[j])
            input_bytes = 12 * sum(dim_counts) + sum(
                dim_value_width[d] * dim_counts[d] for d in range(num_dims)
            )
            return ReduceBatch(outputs, comparisons, input_bytes)

        batch_reducer = hypercube_batch_reducer

    return MapReduceJobSpec(
        name=name,
        inputs=list(dim_files),
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_components,
        output_record_width=output_width,
        pair_width_fn=value_width,
        batch_mapper=batch_mapper,
        batch_reducer=batch_reducer,
        output_name=output_name or f"{name}.out",
    )


# ---------------------------------------------------------------------------
# Repartition equi-join with residual theta filters
# ---------------------------------------------------------------------------

def make_equi_join_job(
    name: str,
    left_file: DistributedFile,
    right_file: DistributedFile,
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    num_reducers: int,
    output_name: str = "",
    left_aliases: Optional[Tuple[str, ...]] = None,
    right_aliases: Optional[Tuple[str, ...]] = None,
) -> MapReduceJobSpec:
    """Hash-partitioned equi-join keyed on all pure-equality predicates.

    Every equality predicate with zero offsets between the two inputs
    becomes part of the shuffle key; any remaining predicates are applied
    as reducer-side filters.  At least one key predicate is required —
    otherwise use the broadcast or hypercube job.
    """
    key_predicates = []
    residual: List[JoinCondition] = []
    for condition in conditions:
        keys_here = [
            p
            for p in condition.predicates
            if p.op.is_equality and p.left.offset == 0 and p.right.offset == 0
        ]
        key_predicates.extend(keys_here)
        if len(keys_here) != len(condition.predicates):
            residual.append(condition)
    if not key_predicates:
        raise ExecutionError(
            f"job {name!r}: equi-join requires at least one equality predicate"
        )

    left_tag, right_tag = left_file.tag, right_file.tag
    if left_tag == right_tag:
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")

    left_aliases = set(left_aliases or _file_aliases(left_file))
    right_aliases = set(right_aliases or _file_aliases(right_file))
    for predicate in key_predicates:
        sides = {predicate.left.alias, predicate.right.alias}
        if not (sides & left_aliases and sides & right_aliases):
            raise ExecutionError(
                f"job {name!r}: key predicate {predicate} does not connect "
                f"the two inputs"
            )
    all_aliases = sorted(left_aliases | right_aliases)
    output_width = composite_width(schemas_by_alias, all_aliases)

    # Key attribute indices resolved once per side: a composite from the
    # left input covers exactly left_aliases (and symmetrically), so the
    # per-record alias test of the old key_of collapses to a static pick.
    def _side_specs(side_aliases) -> List[Tuple[str, int]]:
        refs = [
            p.left if p.left.alias in side_aliases else p.right
            for p in key_predicates
        ]
        return _resolve_refs(refs, schemas_by_alias)

    left_key_specs = _side_specs(left_aliases)
    right_key_specs = _side_specs(right_aliases)

    # The whole key population is known at build time (the simulator hands
    # the builder complete files), which enables two things: the
    # rank-balanced key-spread shuffle placement, and batch mapping that
    # reuses the precomputed per-record keys instead of re-deriving them.
    keys_of_tag = {
        left_tag: _precomputed_keys(left_file, left_key_specs),
        right_tag: _precomputed_keys(right_file, right_key_specs),
    }
    partition, _key_map = make_keyspread_partitioner(
        (key for keys in keys_of_tag.values() for key in keys), num_reducers
    )

    def mapper(tag: str, record: object, ctx: TaskContext):
        composite: Composite = record  # type: ignore[assignment]
        specs = left_key_specs if tag == left_tag else right_key_specs
        yield ("k", _key_values(composite, specs)), (tag == left_tag, composite)

    check = _compile_checks(list(conditions), schemas_by_alias)

    def reducer(key: object, values: List[object], ctx: TaskContext):
        lefts = [c for from_left, c in values if from_left]
        rights = [c for from_left, c in values if not from_left]
        ctx.charge_comparisons(len(lefts) * len(rights))
        for left in lefts:
            for right in rights:
                merged = merge_composites(left, right)
                if merged is None:
                    continue
                if check(merged):
                    yield merged

    # Fixed per-side widths: each side's composites cover a fixed alias set.
    left_value_width = 2 + sum(
        16 + schemas_by_alias[a].row_width for a in left_aliases
    )
    right_value_width = 2 + sum(
        16 + schemas_by_alias[a].row_width for a in right_aliases
    )

    def value_width(value: object) -> int:
        return left_value_width if value[0] else right_value_width  # type: ignore[index]

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        from_left = tag == left_tag
        keys = keys_of_tag[tag]
        pair_width = 12 + (left_value_width if from_left else right_value_width)
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_reducers)
        ]
        for offset, record in enumerate(records):
            key = keys[base_index + offset]
            value = (from_left, record)
            bucket = buckets[partition(key, num_reducers)]
            existing = bucket.get(key)
            if existing is None:
                bucket[key] = [value]
            else:
                existing.append(value)
        return MapBatch(buckets, len(records), len(records) * pair_width)

    # ---- batched reduce side: whole buckets at once, the per-pair check
    # compiled onto positional covers (NumPy mask over big pair blocks).
    batch_reducer = None
    if not (left_aliases & right_aliases):
        left_cover = tuple(sorted(left_aliases))
        right_cover = tuple(sorted(right_aliases))
        mspec = _merge_spec(left_cover, right_cover)
        pair_checks = _compile_pair_checks(
            list(conditions), schemas_by_alias, left_cover, right_cover
        )

        def equi_batch_reducer(keys, values, offsets) -> ReduceBatch:
            outputs: List[object] = []
            comparisons = 0
            left_count = 0
            for g in range(len(keys)):
                lefts: List[Composite] = []
                rights: List[Composite] = []
                for i in range(offsets[g], offsets[g + 1]):
                    from_left, composite = values[i]
                    (lefts if from_left else rights).append(composite)
                num_left, num_right = len(lefts), len(rights)
                left_count += num_left
                comparisons += num_left * num_right
                if not num_left or not num_right:
                    continue
                mask = None
                if (
                    pair_checks is not None
                    and num_left * num_right >= _NP_MIN_PAIRS
                ):
                    mask = _np_pair_mask(pair_checks, lefts, rights)
                if mask is not None:
                    for k in _np.flatnonzero(mask).tolist():
                        j, i = divmod(k, num_right)
                        left, right = lefts[j], rights[i]
                        outputs.append(
                            tuple(
                                left[p] if s == 0 else right[p] for s, p in mspec
                            )
                        )
                else:
                    for left in lefts:
                        for right in rights:
                            if pair_checks is None or _pair_passes(
                                pair_checks, left, right
                            ):
                                outputs.append(
                                    tuple(
                                        left[p] if s == 0 else right[p]
                                        for s, p in mspec
                                    )
                                )
            input_bytes = (12 + left_value_width) * left_count + (
                12 + right_value_width
            ) * (offsets[-1] - left_count)
            return ReduceBatch(outputs, comparisons, input_bytes)

        batch_reducer = equi_batch_reducer

    return MapReduceJobSpec(
        name=name,
        inputs=[left_file, right_file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        partitioner=partition,
        output_record_width=output_width,
        pair_width_fn=value_width,
        batch_mapper=batch_mapper,
        batch_reducer=batch_reducer,
        output_name=output_name or f"{name}.out",
    )


# ---------------------------------------------------------------------------
# Broadcast (fragment-replicate) pair-wise theta-join
# ---------------------------------------------------------------------------

def make_broadcast_join_job(
    name: str,
    big_file: DistributedFile,
    small_file: DistributedFile,
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    num_reducers: int,
    output_name: str = "",
    big_aliases: Optional[Tuple[str, ...]] = None,
    small_aliases: Optional[Tuple[str, ...]] = None,
) -> MapReduceJobSpec:
    """Pair-wise theta-join by replicating the small input to all reducers.

    This is how Hive/Pig era systems evaluate an arbitrary theta predicate:
    a cross join (small side broadcast) followed by a filter.  Network
    volume is ``|small| * n + |big|`` — the baseline our hypercube job is
    measured against.
    """
    if big_file.tag == small_file.tag:
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")
    big_tag = big_file.tag
    big_alias_set = set(big_aliases or _file_aliases(big_file))
    small_alias_set = set(small_aliases or _file_aliases(small_file))
    all_aliases = sorted(big_alias_set | small_alias_set)
    output_width = composite_width(schemas_by_alias, all_aliases)

    def mapper(tag: str, record: object, ctx: TaskContext):
        if tag == big_tag:
            yield stable_hash(("b", ctx.record_index), num_reducers), ("big", record)
        else:
            for component in range(num_reducers):
                yield component, ("small", record)

    check = _compile_checks(list(conditions), schemas_by_alias)

    def reducer(component: object, values: List[object], ctx: TaskContext):
        bigs = [c for side, c in values if side == "big"]
        smalls = [c for side, c in values if side == "small"]
        ctx.charge_comparisons(len(bigs) * len(smalls))
        for big in bigs:
            for small in smalls:
                merged = merge_composites(big, small)
                if merged is None:
                    continue
                if check(merged):
                    yield merged

    # Fixed per-side widths: each side's composites cover a fixed alias set.
    big_value_width = 6 + sum(
        16 + schemas_by_alias[a].row_width for a in big_alias_set
    )
    small_value_width = 6 + sum(
        16 + schemas_by_alias[a].row_width for a in small_alias_set
    )

    def value_width(value: object) -> int:
        return big_value_width if value[0] == "big" else small_value_width  # type: ignore[index]

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_reducers)
        ]
        if tag == big_tag:
            for offset, record in enumerate(records):
                index = stable_hash(("b", base_index + offset), num_reducers)
                value = ("big", record)
                bucket = buckets[index]
                existing = bucket.get(index)
                if existing is None:
                    bucket[index] = [value]
                else:
                    existing.append(value)
            pair_count = len(records)
            pair_bytes = pair_count * (12 + big_value_width)
        else:
            # Replicate: the same value tuple is shared by every reducer.
            for record in records:
                value = ("small", record)
                for component in range(num_reducers):
                    bucket = buckets[component]
                    existing = bucket.get(component)
                    if existing is None:
                        bucket[component] = [value]
                    else:
                        existing.append(value)
            pair_count = len(records) * num_reducers
            pair_bytes = pair_count * (12 + small_value_width)
        return MapBatch(buckets, pair_count, pair_bytes)

    # ---- batched reduce side: the filtered nested loop over whole
    # buckets, pair checks compiled onto positional covers.
    batch_reducer = None
    if not (big_alias_set & small_alias_set):
        big_cover = tuple(sorted(big_alias_set))
        small_cover = tuple(sorted(small_alias_set))
        mspec = _merge_spec(big_cover, small_cover)
        pair_checks = _compile_pair_checks(
            list(conditions), schemas_by_alias, big_cover, small_cover
        )

        def broadcast_batch_reducer(keys, values, offsets) -> ReduceBatch:
            outputs: List[object] = []
            comparisons = 0
            big_count = 0
            for g in range(len(keys)):
                bigs: List[Composite] = []
                smalls: List[Composite] = []
                for i in range(offsets[g], offsets[g + 1]):
                    side, composite = values[i]
                    (bigs if side == "big" else smalls).append(composite)
                num_big, num_small = len(bigs), len(smalls)
                big_count += num_big
                comparisons += num_big * num_small
                if not num_big or not num_small:
                    continue
                mask = None
                if (
                    pair_checks is not None
                    and num_big * num_small >= _NP_MIN_PAIRS
                ):
                    mask = _np_pair_mask(pair_checks, bigs, smalls)
                if mask is not None:
                    for k in _np.flatnonzero(mask).tolist():
                        j, i = divmod(k, num_small)
                        big, small = bigs[j], smalls[i]
                        outputs.append(
                            tuple(big[p] if s == 0 else small[p] for s, p in mspec)
                        )
                else:
                    for big in bigs:
                        for small in smalls:
                            if pair_checks is None or _pair_passes(
                                pair_checks, big, small
                            ):
                                outputs.append(
                                    tuple(
                                        big[p] if s == 0 else small[p]
                                        for s, p in mspec
                                    )
                                )
            input_bytes = (12 + big_value_width) * big_count + (
                12 + small_value_width
            ) * (offsets[-1] - big_count)
            return ReduceBatch(outputs, comparisons, input_bytes)

        batch_reducer = broadcast_batch_reducer

    return MapReduceJobSpec(
        name=name,
        inputs=[big_file, small_file],
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        output_record_width=output_width,
        pair_width_fn=value_width,
        batch_mapper=batch_mapper,
        batch_reducer=batch_reducer,
        output_name=output_name or f"{name}.out",
    )


def _file_aliases(file: DistributedFile) -> Tuple[str, ...]:
    """Aliases covered by a composite file (from its first record)."""
    if not file.records:
        return ()
    first: Composite = file.records[0]  # type: ignore[assignment]
    return tuple(entry[0] for entry in first)


# ---------------------------------------------------------------------------
# Equichain: several inputs co-partitioned on one equality class (YSmart's
# common-MapReduce framework / transit correlation, Lee et al. [23])
# ---------------------------------------------------------------------------

def find_single_key_class(
    conditions: Sequence[JoinCondition],
    alias_groups: Sequence[Tuple[str, ...]],
):
    """An equality class covering every input, or ``None``.

    Builds the equivalence classes of attribute references connected by
    zero-offset equality predicates.  When one class contains a reference
    into *every* alias group, all inputs can be co-partitioned on that
    class in a single MapReduce job — YSmart's transit-correlation merge.
    Returns ``{alias: AttrRef}`` (one key reference per alias that has
    one) or ``None``.
    """
    parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    refs = []
    for condition in conditions:
        for predicate in condition.predicates:
            if not predicate.op.is_equality:
                continue
            if predicate.left.offset != 0 or predicate.right.offset != 0:
                continue
            left = (predicate.left.alias, predicate.left.attr)
            right = (predicate.right.alias, predicate.right.attr)
            union(left, right)
            refs.extend([predicate.left, predicate.right])
    if not refs:
        return None

    classes: Dict[Tuple[str, str], List] = {}
    for ref in refs:
        classes.setdefault(find((ref.alias, ref.attr)), []).append(ref)
    for members in classes.values():
        member_aliases = {ref.alias for ref in members}
        if all(set(group) & member_aliases for group in alias_groups):
            by_alias = {}
            for ref in members:
                by_alias.setdefault(ref.alias, ref)
            return by_alias
    return None


def make_equichain_join_job(
    name: str,
    input_files: Sequence[DistributedFile],
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    num_reducers: int,
    output_name: str = "",
    alias_groups: Optional[Sequence[Tuple[str, ...]]] = None,
) -> MapReduceJobSpec:
    """Several joins sharing one equality key class, in one MapReduce job.

    All inputs are hash-partitioned by the shared key; reducers join the
    co-located groups progressively, applying every condition (equality
    and residual theta alike) as soon as its aliases are bound.  This is
    the merged job YSmart's common-MapReduce framework produces for
    transit-correlated joins.
    """
    alias_groups = list(alias_groups or [_file_aliases(f) for f in input_files])
    key_refs = find_single_key_class(conditions, alias_groups)
    if key_refs is None:
        raise ExecutionError(
            f"job {name!r}: inputs do not share a single equality key class"
        )
    tags = [f.tag for f in input_files]
    if len(set(tags)) != len(tags):
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")
    tag_index = {tag: i for i, tag in enumerate(tags)}
    key_ref_of_tag = {}
    for file, group in zip(input_files, alias_groups):
        for alias in group:
            if alias in key_refs:
                key_ref_of_tag[file.tag] = key_refs[alias]
                break

    all_aliases = sorted({a for group in alias_groups for a in group})
    output_width = composite_width(schemas_by_alias, all_aliases)

    ready_at_step: List[List[JoinCondition]] = []
    seen: set = set()
    bound: set = set()
    for group in alias_groups:
        bound.update(group)
        ready = [
            c for c in conditions if id(c) not in seen and set(c.aliases) <= bound
        ]
        seen.update(id(c) for c in ready)
        ready_at_step.append(ready)

    key_spec_of_tag = {
        tag: (ref.alias, schemas_by_alias[ref.alias].index_of(ref.attr))
        for tag, ref in key_ref_of_tag.items()
    }

    # Build-time key scan: enables the rank-balanced key-spread shuffle
    # and lets the batch mapper reuse precomputed keys.
    keys_of_tag: Dict[str, List[Tuple[str, object]]] = {}
    for file in input_files:
        alias, attr_index = key_spec_of_tag[file.tag]
        file_keys: List[Tuple[str, object]] = []
        for record in file.records:
            rows = {a: row for a, _, row in record}
            file_keys.append(("k", rows[alias][attr_index]))
        keys_of_tag[file.tag] = file_keys
    partition, _key_map = make_keyspread_partitioner(
        (key for keys in keys_of_tag.values() for key in keys), num_reducers
    )

    def mapper(tag: str, record: object, ctx: TaskContext):
        composite: Composite = record  # type: ignore[assignment]
        alias, attr_index = key_spec_of_tag[tag]
        key = rows_by_alias(composite)[alias][attr_index]
        yield ("k", key), (tag_index[tag], composite)

    step_checks = [
        _compile_checks(ready, schemas_by_alias) for ready in ready_at_step
    ]

    def reducer(key: object, values: List[object], ctx: TaskContext):
        per_input: List[List[Composite]] = [[] for _ in input_files]
        for index, composite in values:
            per_input[index].append(composite)
        partial: List[Composite] = [()]
        for step, candidates in enumerate(per_input):
            if not candidates:
                return
            ready_check = step_checks[step]
            grown: List[Composite] = []
            for accumulated in partial:
                for composite in candidates:
                    ctx.charge_comparisons(1)
                    merged = merge_composites(accumulated, composite)
                    if merged is None:
                        continue
                    if ready_check(merged):
                        grown.append(merged)
            partial = grown
            if not partial:
                return
        for merged in partial:
            yield merged

    # Fixed per-input widths: input i's composites cover alias_groups[i].
    input_value_width = [
        8 + sum(16 + schemas_by_alias[a].row_width for a in group)
        for group in alias_groups
    ]

    def value_width(value: object) -> int:
        return input_value_width[value[0]]  # type: ignore[index]

    def batch_mapper(tag: str, records: Sequence[object], base_index: int) -> MapBatch:
        keys = keys_of_tag[tag]
        index = tag_index[tag]
        pair_width = 12 + input_value_width[index]
        buckets: List[Dict[object, List[object]]] = [
            {} for _ in range(num_reducers)
        ]
        for offset, record in enumerate(records):
            key = keys[base_index + offset]
            value = (index, record)
            bucket = buckets[partition(key, num_reducers)]
            existing = bucket.get(key)
            if existing is None:
                bucket[key] = [value]
            else:
                existing.append(value)
        return MapBatch(buckets, len(records), len(records) * pair_width)

    # ---- batched reduce side: progressive co-group join over whole
    # buckets, step checks compiled onto positional covers.
    batch_reducer = None
    num_inputs = len(input_files)
    step_covers = [tuple(sorted(group)) for group in alias_groups]
    flat_cover = [alias for cover in step_covers for alias in cover]
    if len(set(flat_cover)) == len(flat_cover):
        cover_before: List[Tuple[str, ...]] = []
        acc_cover: List[str] = []
        for cover in step_covers:
            cover_before.append(tuple(acc_cover))
            acc_cover = sorted(acc_cover + list(cover))
        merge_specs = [
            None if step == 0 else _merge_spec(cover_before[step], step_covers[step])
            for step in range(num_inputs)
        ]
        step_pair_checks = [
            _compile_pair_checks(
                ready_at_step[step],
                schemas_by_alias,
                cover_before[step],
                step_covers[step],
            )
            for step in range(num_inputs)
        ]

        def equichain_batch_reducer(keys, values, offsets) -> ReduceBatch:
            outputs: List[object] = []
            comparisons = 0
            input_counts = [0] * num_inputs
            for g in range(len(keys)):
                per_input: List[List[Composite]] = [[] for _ in range(num_inputs)]
                for i in range(offsets[g], offsets[g + 1]):
                    index, composite = values[i]
                    per_input[index].append(composite)
                for d in range(num_inputs):
                    input_counts[d] += len(per_input[d])
                partial: List[Composite] = [()]
                alive = True
                for step in range(num_inputs):
                    candidates = per_input[step]
                    if not candidates:
                        alive = False
                        break
                    checks = step_pair_checks[step]
                    num_cands = len(candidates)
                    comparisons += len(partial) * num_cands
                    if step == 0:
                        if checks is None:
                            partial = list(candidates)
                        else:
                            partial = [
                                c for c in candidates if _pair_passes(checks, (), c)
                            ]
                    else:
                        mspec = merge_specs[step]
                        mask = None
                        if (
                            checks is not None
                            and len(partial) * num_cands >= _NP_MIN_PAIRS
                        ):
                            mask = _np_pair_mask(checks, partial, candidates)
                        grown: List[Composite] = []
                        if mask is not None:
                            for k in _np.flatnonzero(mask).tolist():
                                j, i = divmod(k, num_cands)
                                acc = partial[j]
                                cand = candidates[i]
                                grown.append(
                                    tuple(
                                        acc[p] if s == 0 else cand[p]
                                        for s, p in mspec
                                    )
                                )
                        else:
                            for acc in partial:
                                for cand in candidates:
                                    if checks is None or _pair_passes(
                                        checks, acc, cand
                                    ):
                                        grown.append(
                                            tuple(
                                                acc[p] if s == 0 else cand[p]
                                                for s, p in mspec
                                            )
                                        )
                        partial = grown
                    if not partial:
                        alive = False
                        break
                if alive:
                    outputs.extend(partial)
            input_bytes = sum(
                (12 + input_value_width[d]) * input_counts[d]
                for d in range(num_inputs)
            )
            return ReduceBatch(outputs, comparisons, input_bytes)

        batch_reducer = equichain_batch_reducer

    return MapReduceJobSpec(
        name=name,
        inputs=list(input_files),
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        partitioner=partition,
        output_record_width=output_width,
        pair_width_fn=value_width,
        batch_mapper=batch_mapper,
        batch_reducer=batch_reducer,
        output_name=output_name or f"{name}.out",
    )
