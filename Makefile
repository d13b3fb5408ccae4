PYTHON ?= python
SCALE ?= 0.2
export PYTHONPATH := src

.PHONY: test bench bench-quick profile store-check parallel-check \
	scale-check serve-check delta-check incremental-check

## Run the tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Run the end-to-end pipeline benchmark for parallelism 1 and 4; writes
## BENCH_pipeline.json at the repo root (each config in its own process).
bench:
	$(PYTHON) benchmarks/test_perf_pipeline.py --scale $(SCALE)

## Fast sequential-only bench smoke (used by CI): scale 0.02, parallelism 1.
## Writes BENCH_quick.json so the checked-in BENCH_pipeline.json stays put.
bench-quick:
	REPRO_PERF_MEM_SCALES=0.02,0.04 REPRO_PERF_DELTA_SCALE=0.05 \
	$(PYTHON) benchmarks/test_perf_pipeline.py --scale 0.02 \
		--parallelism-set 1 --output BENCH_quick.json
	$(PYTHON) -c "import json; \
	d = json.load(open('BENCH_quick.json')); \
	assert d['schema'] == 'bench-pipeline/v7', d['schema']; \
	stages = d['runs'][0]['stages']; \
	wanted = ('analysis:table2', 'analysis:geography', 'analysis:banners', \
	          'analysis:owners', 'analysis:policies', 'analysis:all'); \
	missing = [k for k in wanted if k not in stages]; \
	assert not missing, f'missing analysis stages: {missing}'; \
	assert d['runs'][0]['stage_rss_mb']['crawl:all'] > 0; \
	memory = d['memory_scaling']; \
	assert memory['reference_tables_match'] is True, memory; \
	service = d['service']; \
	assert service['subscribers'] == 8, service; \
	assert service['events_per_sec'] > 0, service; \
	assert service['served_table_p50_ms'] > 0, service; \
	delta = d['delta']; \
	assert delta['stores_identical'] is True, delta; \
	assert delta['spliced'] > 0, delta; \
	assert delta['speedup'] and delta['speedup'] > 1.0, delta; \
	incr = d['incremental_analysis']; \
	assert incr['tables_identical'] is True, incr; \
	assert incr['hits'] > 0 and incr['misses'] > 0, incr; \
	assert incr['speedup'] and incr['speedup'] > 1.0, incr; \
	print('bench-quick: schema v7, analysis:* stages present,', \
	      'streaming tables match reference,', \
	      'service block recorded,', \
	      'delta store byte-identical at', \
	      str(delta['speedup']) + 'x,', \
	      'incremental analysis byte-identical at', \
	      str(incr['speedup']) + 'x')"

## Memory-flatness gate: run the streaming probe (lazy universe, sharded
## store, trim-mode crawl, cursor analyses) at two scales and fail if the
## crawl-path peak RSS ratio exceeds 1.3x or the tables diverge from an
## unsharded in-memory reference.  Scales/threshold via
## REPRO_SCALE_CHECK_SCALES / REPRO_SCALE_CHECK_RATIO.
scale-check:
	$(PYTHON) benchmarks/scale_check.py

## Scheduler identity check (used by CI): the rendered study must be
## byte-identical across --parallelism 1 and 2, and --stats must report
## the sparse similarity engine's counters.
parallel-check:
	$(PYTHON) -m repro study --scale 0.02 --parallelism 1 \
		> /tmp/repro-serial.out
	$(PYTHON) -m repro study --scale 0.02 --parallelism 2 \
		> /tmp/repro-parallel.out
	diff /tmp/repro-serial.out /tmp/repro-parallel.out
	$(PYTHON) -m repro study --scale 0.02 --parallelism 2 --stats \
		| grep "similarity engine:"

## Store replay check (used by CI): run a scale-0.02 study into a fresh
## datastore (one shard, the default), re-render everything from the
## store alone, and require the two outputs to be byte-identical; then
## run the same study into a fresh 3-shard store and require its study
## and report output to match too.  (Migrating a legacy single-file store
## is covered by tests/test_sharded_store.py::TestLegacyUpgrade.)
store-check:
	rm -rf /tmp/repro-store-check /tmp/repro-store-check-sharded
	$(PYTHON) -m repro study --scale 0.02 \
		--store /tmp/repro-store-check > /tmp/repro-study.out
	$(PYTHON) -m repro report \
		--store /tmp/repro-store-check > /tmp/repro-report.out
	diff /tmp/repro-study.out /tmp/repro-report.out
	$(PYTHON) -m repro study --scale 0.02 --store-shards 3 \
		--store /tmp/repro-store-check-sharded > /tmp/repro-study-sharded.out
	diff /tmp/repro-study.out /tmp/repro-study-sharded.out
	$(PYTHON) -m repro report \
		--store /tmp/repro-store-check-sharded > /tmp/repro-sharded.out
	diff /tmp/repro-study.out /tmp/repro-sharded.out
	$(PYTHON) -m repro store info /tmp/repro-store-check --verbose
	$(PYTHON) -m repro store info /tmp/repro-store-check-sharded --shards

## Measurement-service gate (used by CI): boot `repro serve` on an
## ephemeral port, submit a scale-0.02 study over HTTP, stream its events
## to completion from two concurrent subscribers, and require the served
## report — whole and reassembled from the per-section endpoints — to be
## byte-identical to `repro report` against the same store.
serve-check:
	$(PYTHON) benchmarks/serve_check.py

## Delta-crawl gate (used by CI): evolve the universe one epoch (~5% of
## sites change content), crawl epoch 1 as a delta against the epoch-0
## store and again as a full re-crawl, and require byte-identical stores,
## byte-identical rendered sections, and a >= 3x speedup.  Tune with
## REPRO_DELTA_CHECK_SCALE / _CHURN / _SPEEDUP.
delta-check:
	$(PYTHON) benchmarks/delta_check.py

## Incremental-analysis gate (used by CI): warm the map/merge aggregate
## cache on the seed epoch, delta-crawl one evolved epoch (~5% churn),
## then render every section incrementally and monolithically and require
## byte-identical output, a hit-dominated epoch pass, and a >= 3x
## speedup.  Tune with REPRO_INCREMENTAL_CHECK_SCALE / _CHURN / _SPEEDUP.
incremental-check:
	$(PYTHON) benchmarks/incremental_check.py

## Profile one sequential pipeline run and print the top-20 functions by
## total own time.
profile:
	$(PYTHON) -c "import cProfile, pstats, sys; \
	sys.argv = ['bench']; \
	from benchmarks.test_perf_pipeline import run_pipeline; \
	profiler = cProfile.Profile(); \
	profiler.runcall(run_pipeline, $(SCALE), 1); \
	pstats.Stats(profiler).sort_stats('tottime').print_stats(20)"
