# Convenience targets for the reproduction.

.PHONY: install test typecheck bench bench-smoke bench-parallel bench-ledger bench-compare bench-tables examples all

install:
	pip install -e .

test:
	PYTHONPATH=src pytest tests/

typecheck:  ## strict typing of engine and util (if mypy is installed)
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict --follow-imports=silent \
			src/repro/engine src/repro/util; \
	else \
		echo "mypy not installed; skipping type check (CI runs it)"; \
	fi

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# bench-smoke also records machine-readable BENCH_*.json under out/bench/.
bench-smoke:  ## quick executor sanity: parallel == serial, then q/s
	PYTHONPATH=src REPRO_BENCH_OUT=out/bench \
		pytest benchmarks/test_driver_throughput.py \
		benchmarks/test_frozen_snapshot.py \
		benchmarks/test_delta_overlay.py \
		benchmarks/test_profiler_overhead.py \
		-k "parallel or frozen or overlay or profiler" \
		-s --benchmark-disable

bench-parallel:  ## morsel-parallel scan smoke: rows identical, records speedup
	PYTHONPATH=src REPRO_BENCH_OUT=out/bench \
		pytest benchmarks/test_morsel_scan.py -s --benchmark-disable

bench-ledger:  ## the tracked four-workload ledger at smoke size (< 30 s)
	python3 bench/ledger.py --smoke

bench-compare:  ## diff freshest BENCH_*.json vs the previous archived run
	PYTHONPATH=src python benchmarks/bench_compare.py

bench-tables:  ## print every reproduced table/figure with assertions
	PYTHONPATH=src pytest benchmarks/ -s --benchmark-disable

examples:
	python examples/quickstart.py
	python examples/bi_analytics_report.py
	python examples/interactive_audit.py
	python examples/datagen_export.py
	python examples/bi_power_throughput.py

all: install typecheck test bench
