PYTHON ?= python
export PYTHONPATH := src

.PHONY: test claims scale-check delta-check incremental-check

## Run the tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Paper claims at full scale: crawl the paper-sized corpus into a
## temporary store, evaluate every row of tests/test_paper_claims.py
## (tier-1 checks the same rows at scale 0.1) and write the paper-vs-
## measured table to benchmarks/results/claims.txt; fails if a claim
## does not hold.
claims:
	$(PYTHON) tests/test_paper_claims.py --scale 1.0

## Memory-flatness gate: run the streaming probe (lazy universe, sharded
## store, streamed crawl, cursor analyses) at two scales and fail if the
## crawl-path peak RSS ratio exceeds 1.3x or the tables diverge from an
## unsharded in-memory reference.  Tune the scales with
## REPRO_SCALE_CHECK_SCALES.
scale-check:
	$(PYTHON) benchmarks/scale_check.py

## Delta-crawl gate (used by CI): evolve the universe one epoch (~5% of
## sites change content), crawl epoch 1 as a delta against the epoch-0
## store and again as a full re-crawl, and require byte-identical stores,
## byte-identical rendered sections, and a >= 3x speedup.  Tune the
## scale with REPRO_DELTA_CHECK_SCALE.
delta-check:
	$(PYTHON) benchmarks/delta_check.py

## Incremental-analysis gate (used by CI): crawl the seed epoch, delta-
## crawl one evolved epoch (~5% churn; sites splice their partials with
## their rows), then render every section from the partials at rest and
## by mapping every site from its rows, and require byte-identical
## output, an epoch pass that maps nothing, and a >= 3x speedup.  Tune
## the scale with REPRO_INCREMENTAL_CHECK_SCALE.
incremental-check:
	$(PYTHON) benchmarks/incremental_check.py
