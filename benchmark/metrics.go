package main

import "fmt"

// layerSample adds one sample to a per-layer metric reported as a median.
func (r *run) layerSample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// procLayer turns the process counters of the untraced reference leg into
// the proc.* metrics.
func (r *run) procLayer() {
	nb := float64(r.procBatches)
	r.set("proc.cpu_s", r.proc.cpuS)
	r.set("proc.gc_cpu_frac", ratio(r.proc.gcCPUS, r.proc.totalCPUS))
	r.set("proc.allocs_per_batch", ratio(r.proc.allocs, nb))
	r.set("proc.alloc_mb_per_batch", ratio(r.proc.allocBytes/(1<<20), nb))
	r.set("proc.heap_live_mb_end", r.proc.heapLiveMiB)
}

// endToEnd assembles the twelve end-to-end metrics from an untraced run.
func (r *run) endToEnd() map[string]metric {
	out := make(map[string]metric)
	unit := make(map[string]string)
	for _, d := range endToEndMetrics {
		unit[d.Name] = d.Unit
	}
	put := func(name string, v float64, note string) { out[name] = metric{Value: v, Unit: unit[name], Note: note} }
	n := func(s []float64) string { return fmt.Sprintf("median, n=%d", len(s)) }

	put("setup_s", median(r.setupS), n(r.setupS))
	put("ingest_cells_per_s", ratio(float64(r.cells), r.ingestWallS), fmt.Sprintf("%d cells in %.2f s of ingest", r.cells, r.ingestWallS))
	put("batch_ms_p50", median(r.batchMs), n(r.batchMs))
	v, note := tail(r.batchMs, 90)
	if len(r.latenessMs) > 0 {
		lv, lnote := tail(r.latenessMs, 90)
		note += fmt.Sprintf("; open loop, generator lateness %.2f ms (%s)", lv, lnote)
	}
	put("batch_ms_p90", v, note)
	put("query_ms_p50", median(r.qAll), n(r.qAll))
	v, note = tail(r.qAll, 99)
	put("query_ms_p99", v, note)
	put("query_repeat_ms_p50", median(r.qRepeat), n(r.qRepeat))
	put("query_cold_ms_p50", median(r.qCold), n(r.qCold))
	put("query_qps", ratio(float64(len(r.qAll)), r.qWallS), fmt.Sprintf("%d answers, 1 closed-loop client", len(r.qAll)))
	put("recovery_ms", median(r.recoveryMs), n(r.recoveryMs))
	put("wal_write_amp", median(r.writeAmp), "bytes written under the data directory / canonical encoded bytes; "+n(r.writeAmp))
	put("peak_rss_mb", r.peakRSS, "VmHWM at the end of the last timed region")
	return out
}

// perLayer assembles the per-layer metrics of a traced run: what the spans
// give, what the probes gave, and what the workload set from the program's
// own counters.
func (r *run) perLayer(v *traceView) map[string]metric {
	var sh shares
	roots := v.named("maintain.batch")
	if nb := float64(len(roots)); nb > 0 {
		phaseMs := map[string][]float64{}
		var selfMs []float64
		busyMs, calls := map[string]float64{}, map[string]float64{}
		for _, root := range roots {
			for _, c := range v.children[root.id] {
				name := v.names[c.name]
				phaseMs[name] = append(phaseMs[name], float64(c.end-c.start)/1e6)
				if name != "maintain.execute" {
					continue
				}
				selfMs = append(selfMs, float64(selfNanos(c, v.children[c.id]))/1e6)
				for _, leaf := range []string{"storage.get", "storage.put", "storage.merge", "transport."} {
					n, b := v.childStats(c.id, leaf)
					calls[leaf] += float64(n)
					busyMs[leaf] += float64(b) / 1e6
				}
			}
		}
		batchMs := sum(durationsMs(roots))
		planMs := sum(phaseMs["view.unitgen"]) + sum(phaseMs["maintain.context"]) + sum(phaseMs["maintain.plan"])
		sh.planning = ratio(planMs, batchMs)
		sh.optimize = ratio(planMs+sum(phaseMs["maintain.stage"]), batchMs)
		sh.transport = ratio(busyMs["transport."], batchMs)

		r.set("view.unitgen_ms_p50", median(phaseMs["view.unitgen"]))
		r.set("maintain.stage_ms_p50", median(phaseMs["maintain.stage"]))
		r.set("maintain.context_ms_p50", median(phaseMs["maintain.context"]))
		r.set("maintain.plan_ms_p50", median(phaseMs["maintain.plan"]))
		r.set("maintain.execute_ms_p50", median(phaseMs["maintain.execute"]))
		r.set("maintain.execute_self_ms_p50", median(selfMs))
		r.set("maintain.optimize_share", sh.optimize)
		for _, op := range []string{"get", "put", "merge"} {
			r.set("storage."+op+"_calls_per_batch", calls["storage."+op]/nb)
			r.set("storage."+op+"_busy_ms_per_batch", busyMs["storage."+op]/nb)
		}
		r.set("transport.busy_ms_per_batch", busyMs["transport."]/nb)

		var units, triples, transfers, ledger float64
		for _, in := range r.infos {
			units += float64(in.Units)
			triples += float64(in.Triples)
			transfers += float64(in.Transfers)
			ledger += in.LedgerS
		}
		r.set("view.units_per_batch", units/nb)
		r.set("view.triples_per_batch", triples/nb)
		r.set("maintain.transfers_per_batch", transfers/nb)
		r.set("maintain.ledger_predicted_s_per_batch", ledger/nb)
		r.set("maintain.exec_over_ledger", ratio(sum(phaseMs["maintain.execute"])/1000, ledger))

		if np := float64(len(r.probes)); np > 0 {
			var pairs, out, joinMs, chunks, dec, enc float64
			var pairUs, cells []float64
			skipped := 0
			for _, p := range r.probes {
				skipped += p.Skipped
				pairs += float64(p.Pairs)
				out += float64(p.OutCells)
				joinMs += p.JoinMs
				chunks += float64(p.Chunks)
				dec += p.DecodeUs
				enc += p.EncodeUs
				pairUs = append(pairUs, p.PairUs...)
				cells = append(cells, p.CellsPerChunk...)
			}
			sh.join = ratio(joinMs, batchMs) // every traced batch is probed
			r.check("replay-covers-every-unit", skipped == 0, "%d unit pairs skipped because their batch rewrote a base chunk they read", skipped)
			r.set("simjoin.pairs_per_batch", pairs/np)
			r.set("simjoin.out_cells_per_batch", out/np)
			r.set("simjoin.replay_ms_per_batch", joinMs/np)
			r.set("simjoin.pair_us_p50", median(pairUs))
			r.set("array.decode_us_per_chunk", ratio(dec, chunks))
			r.set("array.encode_us_per_chunk", ratio(enc, chunks))
			r.set("array.cells_per_chunk_p50", median(cells))
		}
	}
	p50 := func(key string) float64 { return median(durationsMs(v.named(key))) }
	r.set("storage.get_us_p50", 1000*p50("storage.get"))
	r.set("transport.get_rtt_us_p50", 1000*p50("transport.get"))
	r.set("transport.put_rtt_us_p50", 1000*p50("transport.put_batch"))
	r.set("transport.merge_rtt_us_p50", 1000*p50("transport.merge"))
	r.set("transport.join_rtt_ms_p50", p50("transport.join"))

	// The WAL: barrier, write and fsync spans under the ingest span of each
	// traced repetition.
	if ingests := v.named("stream.ingest"); len(ingests) > 0 {
		busyMs := map[string]float64{}
		for _, in := range ingests {
			for _, leaf := range []string{"wal.fsync", "wal.write", "wal.barrier", "wal."} {
				_, b := v.childStats(in.id, leaf)
				busyMs[leaf] += float64(b) / 1e6
			}
		}
		sh.wal = ratio(busyMs["wal."], sum(durationsMs(ingests)))
		nb := float64(len(r.batchMs))
		r.set("wal.fsync_busy_ms_per_batch", busyMs["wal.fsync"]/nb)
		r.set("wal.write_busy_ms_per_batch", busyMs["wal.write"]/nb)
		r.set("wal.barrier_busy_ms_per_batch", busyMs["wal.barrier"]/nb)
		r.set("wal.busy_ms_per_batch", busyMs["wal."]/nb)
		r.set("wal.fsync_us_p50", 1000*p50("wal.fsync"))
		r.set("wal.barrier_ms_p50", p50("wal.barrier"))
	}

	for name, vals := range r.samples {
		r.set(name, median(vals))
	}
	r.shapeChecks(sh)

	out := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		out[d.Name] = metric{Value: r.layer[d.Name], Unit: d.Unit}
	}
	return out
}

// shares are the parts of the traced wall the shape assertions look at,
// each a sum of span time over a sum of span time.
type shares struct {
	planning  float64 // unitgen + context + plan over batch wall
	optimize  float64 // planning + stage over batch wall
	join      float64 // replayed join kernel over batch wall
	transport float64 // time a fabric call was in flight over batch service time
	wal       float64 // time a barrier, write or fsync was in flight over ingest wall
}

// shapeChecks asserts, from the traced run, that the workload stresses the
// layer it was built for. The smoke scale is too small to have a shape.
func (r *run) shapeChecks(sh shares) {
	if r.opt.smoke {
		return
	}
	switch r.cfg.Name {
	case "ingest-sparse":
		r.check("shape-planning-dominates", sh.planning >= 0.5, "unitgen + plan + context = %.0f%% of batch wall, want >= 50%%", 100*sh.planning)
		r.check("shape-join-is-minor", sh.join <= 0.2, "simjoin replay = %.0f%% of batch wall, want <= 20%%", 100*sh.join)
	case "ingest-dense":
		r.check("shape-join-dominates", sh.join >= 0.7, "simjoin replay = %.0f%% of batch wall, want >= 70%%", 100*sh.join)
		r.check("shape-planning-is-minor", sh.optimize <= 0.1, "stage + unitgen + context + plan = %.0f%% of batch wall, want <= 10%%", 100*sh.optimize)
	case "serve-mixed-tcp":
		r.check("shape-transport-dominates", sh.transport >= 0.4, "transport busy = %.0f%% of batch service time, want >= 40%%", 100*sh.transport)
	case "durable-trickle":
		r.check("shape-wal-dominates", sh.wal >= 0.5, "wal barrier + write + fsync busy = %.0f%% of ingest wall, want >= 50%%", 100*sh.wal)
	}
}
