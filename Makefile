# Convenience targets for the reproduction repo.
#
#   make verify   - tier-1 test suite (ROADMAP.md's gate)
#   make smoke    - REPRO_QUICK=1 answer-agreement + batch-equivalence
#                   smoke: all four planners must produce identical
#                   answers, and the vectorized map AND reduce functions
#                   must match the per-record reference lifted through
#                   the batch runtime bit for bit, on a trimmed volume
#                   grid (fast enough for CI)
#   make lint     - ruff check (config in pyproject.toml); skipped with a
#                   notice when ruff is not installed locally — CI always
#                   installs and enforces it
#   make serve-smoke - boot a real `repro serve` daemon + 2 worker daemons
#                   and drive 3 concurrent queries over the wire: one
#                   checked against a serial reference, one cancelled,
#                   one past its deadline (structured taxonomy errors);
#                   plus the two-client fairness drill (vip priority
#                   beats a bulk flood under quotas) and a paginated
#                   large-result fetch checked page-by-page
#   make serve-recovery - the durability drill: SIGKILL a journaled
#                   coordinator mid-query, restart it with --recover,
#                   and check the resumed query replays its checkpointed
#                   waves and lands bit-identical rows
#   make results-unchanged - fail when the tracked benchmark tables
#                   under benchmarks/results differ from the checkout
#                   (the writers are deterministic; run after verify)
#   make ci       - the full local equivalent of the CI gate: lint +
#                   verify + results-unchanged + smoke + serve-smoke +
#                   serve-recovery
#   make bench    - hot-path microbenches (pytest-benchmark table)
#   make hotpath  - append this revision's hot-path numbers to
#                   BENCH_hotpaths.json (run with --label before first on
#                   the pre-PR checkout when starting a perf PR)

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
PYTEST := PYTHONPATH=$(PYTHONPATH) python -m pytest

.PHONY: verify results-unchanged smoke lint serve-smoke serve-recovery ci bench hotpath

verify:
	$(PYTEST) -x -q

results-unchanged:
	git diff --exit-code -- benchmarks/results

smoke:
	REPRO_QUICK=1 $(PYTEST) -q \
		benchmarks/test_perf_hotpaths.py::test_smoke_all_methods_agree \
		tests/joins/test_batch_equivalence.py

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	else \
		echo "ruff not installed; skipping lint (CI installs and enforces it)"; \
	fi

serve-smoke:
	$(PYTEST) -q tests/serve/test_smoke_subprocess.py

serve-recovery:
	$(PYTEST) -q tests/serve/test_recovery_subprocess.py

ci: lint verify results-unchanged smoke serve-smoke serve-recovery

bench:
	$(PYTEST) -q benchmarks/test_perf_hotpaths.py

hotpath:
	PYTHONPATH=$(PYTHONPATH) python benchmarks/run_hotpath_bench.py --label after
