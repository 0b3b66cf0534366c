package main

import "time"

// metricDef names one metric. The end-to-end list and the per-layer list
// below are what BENCHMARK.json declares; TestCatalogMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one (see README.md for where each comes from on workloads
// whose timed region has no operation of that kind).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_cells_per_s", "cells/s", "higher"},
	{"batch_ms_p50", "ms", "lower"},
	{"batch_ms_p90", "ms", "lower"},
	{"query_ms_p50", "ms", "lower"},
	{"query_ms_p99", "ms", "lower"},
	{"query_repeat_ms_p50", "ms", "lower"},
	{"query_cold_ms_p50", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"recovery_ms", "ms", "lower"},
	{"wal_write_amp", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics come from the traced run. Layers are the module names. A
// metric of a layer the workload does not run reads 0.
var perLayerMetrics = []metricDef{
	{"trace_overhead_pct", "%", "lower"},

	{"proc.cpu_s", "s", "lower"},
	{"proc.gc_cpu_frac", "ratio", "lower"},
	{"proc.allocs_per_batch", "count", "lower"},
	{"proc.alloc_mb_per_batch", "MB", "lower"},
	{"proc.heap_live_mb_end", "MB", "lower"},

	{"view.unitgen_ms_p50", "ms", "lower"},
	{"view.units_per_batch", "count", "lower"},
	{"view.triples_per_batch", "count", "lower"},

	{"maintain.stage_ms_p50", "ms", "lower"},
	{"maintain.context_ms_p50", "ms", "lower"},
	{"maintain.plan_ms_p50", "ms", "lower"},
	{"maintain.execute_ms_p50", "ms", "lower"},
	{"maintain.execute_self_ms_p50", "ms", "lower"},
	{"maintain.transfers_per_batch", "count", "lower"},
	{"maintain.optimize_share", "ratio", "lower"},
	{"maintain.ledger_predicted_s_per_batch", "s", "lower"},
	{"maintain.exec_over_ledger", "ratio", "lower"},
	{"maintain.batch_service_ms_p50", "ms", "lower"},

	{"simjoin.pairs_per_batch", "count", "lower"},
	{"simjoin.pair_us_p50", "us", "lower"},
	{"simjoin.replay_ms_per_batch", "ms", "lower"},
	{"simjoin.out_cells_per_batch", "count", "lower"},

	{"array.decode_us_per_chunk", "us", "lower"},
	{"array.encode_us_per_chunk", "us", "lower"},
	{"array.cells_per_chunk_p50", "count", "higher"},

	{"storage.get_calls_per_batch", "count", "lower"},
	{"storage.get_us_p50", "us", "lower"},
	{"storage.get_busy_ms_per_batch", "ms", "lower"},
	{"storage.put_calls_per_batch", "count", "lower"},
	{"storage.put_busy_ms_per_batch", "ms", "lower"},
	{"storage.merge_calls_per_batch", "count", "lower"},
	{"storage.merge_busy_ms_per_batch", "ms", "lower"},
	{"storage.resident_mb_end", "MB", "lower"},
	{"storage.chunks_end", "count", "lower"},

	{"transport.requests_per_batch", "count", "lower"},
	{"transport.bytes_out_per_batch", "B", "lower"},
	{"transport.bytes_in_per_batch", "B", "lower"},
	{"transport.get_rtt_us_p50", "us", "lower"},
	{"transport.put_rtt_us_p50", "us", "lower"},
	{"transport.merge_rtt_us_p50", "us", "lower"},
	{"transport.join_rtt_ms_p50", "ms", "lower"},
	{"transport.busy_ms_per_batch", "ms", "lower"},
	{"transport.dedup_hits_per_batch", "count", "higher"},
	{"transport.retries", "count", "lower"},

	{"cluster.gather_view_ms_p50", "ms", "lower"},
	{"cluster.epoch_pin_us_p50", "us", "lower"},
	{"cluster.epochs_published", "count", "higher"},
	{"cluster.retained_mb_peak", "MB", "lower"},
	{"cluster.readcache_hit_ratio", "ratio", "higher"},
	{"cluster.viewcache_hit_ratio", "ratio", "higher"},
	{"cluster.viewcache_invalidations", "count", "lower"},

	{"shape.delta_us_p50", "us", "lower"},

	{"query.decide_ms_p50", "ms", "lower"},
	{"query.answer_inproc_repeat_ms_p50", "ms", "lower"},
	{"query.answer_inproc_cold_ms_p50", "ms", "lower"},
	{"query.memo_hit_ratio", "ratio", "higher"},
	{"query.solve_skips", "count", "higher"},
	{"query.use_view_share", "ratio", "higher"},
	{"query.bigscale_answer_ms_p50", "ms", "lower"},

	{"serve.wire_ms_p50", "ms", "lower"},
	{"serve.reply_kb_p50", "KB", "lower"},
	{"serve.admitted", "count", "higher"},
	{"serve.rejected", "count", "lower"},

	{"stream.submit_to_ack_ms_p50", "ms", "lower"},
	{"stream.router_solves", "count", "lower"},
	{"stream.router_reuses", "count", "higher"},
	{"stream.retries", "count", "lower"},
	{"stream.transfer_busy_s", "s", "lower"},
	{"stream.join_busy_s", "s", "lower"},
	{"stream.commit_busy_s", "s", "lower"},
	{"stream.transfer_stall_s", "s", "lower"},
	{"stream.join_stall_s", "s", "lower"},
	{"stream.commit_stall_s", "s", "lower"},

	{"wal.write_mb_per_batch", "MB", "lower"},
	{"wal.fsyncs_per_batch", "count", "lower"},
	{"wal.fsync_us_p50", "us", "lower"},
	{"wal.fsync_busy_ms_per_batch", "ms", "lower"},
	{"wal.write_busy_ms_per_batch", "ms", "lower"},
	{"wal.barrier_ms_p50", "ms", "lower"},
	{"wal.barrier_busy_ms_per_batch", "ms", "lower"},
	{"wal.busy_ms_per_batch", "ms", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.dir_mb_end", "MB", "lower"},
	{"wal.recover_open_ms", "ms", "lower"},
	{"wal.recover_install_ms", "ms", "lower"},
}

// workloadCfg is one named workload at its two scales.
type workloadCfg struct {
	Name, Why string
	kind      workloadKind
	gen       genParams // one repetition at full scale
	smoke     genParams // the -smoke scale
	// interval paces the open-loop batch schedule of the serve workload.
	interval, smokeInterval time.Duration
	// readBacks is how many view reads the read-back epilogue of one
	// repetition makes. It keeps the pooled count of a run clear of 100,
	// where the percentile rule's rung would change with the number of
	// repetitions a machine manages.
	readBacks int
}

type workloadKind int

const (
	kindIngest workloadKind = iota
	kindServe
	kindDurable
)

// The four workloads. A repetition is sized so that a few of them fill the
// run: the percentile rule wants 100 batches for a p90, and the oracle of a
// repetition costs as much as maintaining it, so repetitions stay short and
// the batches of all of them are pooled.
var workloads = []workloadCfg{
	{
		Name:  "ingest-sparse",
		Why:   "few-cell chunks: unit generation, the placement solve and storage reads dominate, the join kernel and the WAL do nothing",
		kind:  kindIngest,
		gen:   genParams{Batches: 10},
		smoke: genParams{SmallSpec: true, Batches: 4},

		readBacks: 20,
	},
	{
		Name: "ingest-dense",
		Why:  "170-cell chunks: the similarity-join kernel and the merge dominate and planning is noise, the mirror of ingest-sparse",
		kind: kindIngest,
		gen: genParams{
			Batches: 22, BaseNights: 2, DetectionsPerNight: 3000, Sigma: 40, NumFields: 6, FieldsPerNight: 1,
		},
		smoke: genParams{
			SmallSpec: true, Batches: 3, DetectionsPerNight: 600, Sigma: 25, NumFields: 2, FieldsPerNight: 1,
		},
		readBacks: 20,
	},
	{
		Name:          "serve-mixed-tcp",
		Why:           "reads beside writes over loopback TCP: paced batches flip the epoch under one closed-loop client of repeated and cold shapes",
		kind:          kindServe,
		gen:           genParams{SmallSpec: true, DetectionsPerNight: 120, Batches: 6},
		smoke:         genParams{SmallSpec: true, Batches: 3},
		interval:      400 * time.Millisecond,
		smokeInterval: 100 * time.Millisecond,
	},
	{
		Name:  "durable-trickle",
		Why:   "tiny deltas through the streaming graph with the WAL on: the per-batch barrier dominates, then kill -9 and recover",
		kind:  kindDurable,
		gen:   genParams{TrickleDraws: 150, Batches: 120},
		smoke: genParams{TrickleDraws: 40, Batches: 6, RaRange: 2000, DecRange: 1000, BaseNights: 2, DetectionsPerNight: 250},

		readBacks: 30,
	},
}

func findWorkload(name string) (workloadCfg, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadCfg{}, false
}
