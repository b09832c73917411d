# Convenience targets for the reproduction.

PYTEST ?= python -m pytest

.PHONY: install test test-fast bench perfbench-smoke pytest-bench figures examples clean

install:
	pip install -e .

test:
	$(PYTEST) tests/

test-fast:
	$(PYTEST) tests/ -x -q -m "not slow"

# The benchmark of record (BENCHMARK.json, perfbench/README.md): all six
# workloads at full length; compare two runs with perfbench/compare.py.
bench:
	python3 perfbench/run.py

# The same, scaled down: all six workloads once, every output check
# on, < 20 s.
perfbench-smoke:
	python3 perfbench/run.py --smoke

# The paper's tables/figures via pytest-benchmark.
pytest-bench:
	$(PYTEST) benchmarks/ --benchmark-only -s

# Full-fidelity reproduction of every table and figure (hours).
figures:
	REPRO_BENCH_APPS=all REPRO_BENCH_CYCLES=20000 \
	$(PYTEST) benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; python $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
	rm -rf .repro-sweep-cache benchmarks/.cache
