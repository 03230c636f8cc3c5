"""The repository's benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload q2-merge --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the program from
its ``src/``.  With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` carrying every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead.  The line before it records the environment
and the timing metrics in seconds.  Timing metrics are in reference
units (see ``workloads.py``).  Workloads, metrics and their expected
interactions are described in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of runs (caches, journals, spans), inside the checkout.
WORK = ROOT / ".perfbench-work"

END_TO_END_UNITS = {
    "query_p50_ref": "ref",
    "query_p99_ref": "ref",
    "queries_per_ref": "1/ref",
    "rows_per_ref": "rows/ref",
    "sim_makespan_s": "sim_s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "answered_frac": "frac",
}

PER_LAYER_UNITS = {
    "core.planner.plan_s": "s",
    "core.planner.self_s": "s",
    "relational.sampling.selectivity_s": "s",
    "relational.sampling.calls": "count",
    "core.reducer_selection.kr_sweep_s": "s",
    "relational.stats_cache.hit_ratio": "frac",
    "core.partitioner.hit_ratio": "frac",
    "core.executor.merge_s": "s",
    "joins.records.materialize_s": "s",
    "core.executor.lift_s": "s",
    "mapreduce.runtime.run_job_s": "s",
    "mapreduce.runtime.jobs": "count",
    "core.executor.self_s": "s",
    "mapreduce.shuffle_bytes": "B",
    "mapreduce.map_output_records": "count",
    "mapreduce.reduce_comparisons": "count",
    "core.executor.merge_rows_in": "count",
    "core.executor.result_rows": "count",
    "mapreduce.reduce_yield": "ratio",
    "mapreduce.replication": "ratio",
    "serve.queued_s": "s",
    "serve.planning_s": "s",
    "serve.running_s": "s",
    "client.submit_s": "s",
    "client.fetch_s": "s",
    "client.pages": "count",
    "serve.rejected": "count",
    "storage.journal_bytes_per_query": "B",
    "storage.journal_records_per_query": "count",
    "storage.checkpoint_hit_ratio": "frac",
    "storage.checkpoint_bytes_restored": "B",
    "mapreduce.wire.send_s": "s",
    "storage.journal.append_s": "s",
    "storage.blob.get_s": "s",
    "trace.overhead_frac": "frac",
}


def pin_environment(workdir: Path) -> None:
    """Drop inherited ``REPRO_*`` settings and set the ones runs need.

    A fresh cache directory per run keeps any disk cache from making a
    later run start warmer than the first.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(
        {
            "REPRO_EXEC_BACKEND": "serial",
            "REPRO_CACHE_DIR": str(workdir / "cache"),
            "REPRO_PLAN_DISK_CACHE": "0",
            "REPRO_CHECKPOINT": "0",
        }
    )


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")


def environment_record() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        revision = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = WORK / stamp
    workdir.mkdir()
    pin_environment(workdir)
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.tracer is not None:
        run.tracer.dump(WORK / f"{stamp}.spans.jsonl")

    values, units = (
        (run.per_layer(), PER_LAYER_UNITS) if args.trace else (run.end_to_end(), END_TO_END_UNITS)
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "time": time.time()}
    record.update(environment_record())
    print(json.dumps({"environment": record, "seconds": run.seconds()}))
    print(
        json.dumps(
            {
                "correct": run.attempted > 0 and run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
