.PHONY: install test bench bench-stats figures examples loc all

install:
	pip install -e .

test:
	pytest tests/

bench:            ## shape assertions only (fast)
	pytest benchmarks/ --benchmark-disable

bench-stats:      ## full pytest-benchmark statistics
	pytest benchmarks/ --benchmark-only

figures:          ## regenerate every paper figure
	python benchmarks/harness.py

examples:
	for example in examples/*.py; do python $$example; done

loc:              ## src/ lines per package, and in total
	@for d in src/repro/*/; do \
		printf '%6d %s\n' $$(find $$d -name '*.py' | xargs cat | wc -l) $$d; \
	done; \
	printf '%6d src/ total\n' $$(find src -name '*.py' | xargs cat | wc -l)

all: test bench figures examples
