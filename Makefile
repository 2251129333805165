.PHONY: install test bench bench-stats figures examples loc loc-check all

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

# src/ may not outgrow this; a PR that needs more raises it in the open.
LOC_CEILING = 19922

loc-check:        ## fail when src/ is over LOC_CEILING lines
	@n=$$(find src -name '*.py' | xargs cat | wc -l); \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "src/ is $$n lines, over the ceiling of $(LOC_CEILING) (LOC_CEILING in the Makefile)"; \
		exit 1; \
	fi; \
	echo "src/ is $$n lines (ceiling $(LOC_CEILING))"

all: test bench figures examples
