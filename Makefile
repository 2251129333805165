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

# The system links into an application; the apparatus (the paper's
# baselines, vcode, the workload generators) only measures it.
SYSTEM = src/repro/__init__.py src/repro/abi src/repro/core src/repro/net src/repro/fmtserv src/repro/tools
APPARATUS = src/repro/wire src/repro/vcode src/repro/workloads
count = $$(find $(1) -name '*.py' | xargs cat | wc -l)

loc:              ## src/ lines per package, for the system and the apparatus, and in total
	@for d in src/repro/*/; do \
		printf '%6d %s\n' $(call count,$$d) $$d; \
	done; \
	printf '%6d system (abi core net fmtserv tools)\n' $(call count,$(SYSTEM)); \
	printf '%6d apparatus (wire vcode workloads)\n' $(call count,$(APPARATUS)); \
	printf '%6d src/ total\n' $(call count,src)

# Neither may outgrow its ceiling; a PR that needs more raises it in the open.
LOC_CEILING = 16508
APPARATUS_LOC_CEILING = 3397

loc-check:        ## fail when the system or the apparatus is over its ceiling
	@n=$(call count,$(SYSTEM)); a=$(call count,$(APPARATUS)); \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "the system is $$n lines, over the ceiling of $(LOC_CEILING) (LOC_CEILING in the Makefile)"; \
		exit 1; \
	fi; \
	if [ $$a -gt $(APPARATUS_LOC_CEILING) ]; then \
		echo "the apparatus is $$a lines, over the ceiling of $(APPARATUS_LOC_CEILING) (APPARATUS_LOC_CEILING in the Makefile)"; \
		exit 1; \
	fi; \
	echo "the system is $$n lines (ceiling $(LOC_CEILING)), the apparatus $$a (ceiling $(APPARATUS_LOC_CEILING))"

all: test bench figures examples
