# Convenience targets for the reproduction.

.PHONY: install test typecheck bench bench-ledger bench-tables examples all

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

bench-ledger:  ## the tracked four-workload ledger at smoke size (< 30 s)
	python3 bench/ledger.py --smoke

bench-tables:  ## print every reproduced table/figure with assertions
	PYTHONPATH=src pytest benchmarks/ -s --benchmark-disable

examples:
	python examples/quickstart.py
	python examples/bi_analytics_report.py
	python examples/interactive_audit.py
	python examples/datagen_export.py
	python examples/bi_power_throughput.py

all: install typecheck test bench
