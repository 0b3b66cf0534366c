package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// ingestRep is one repetition of an ingest workload: generate, load, build
// the view, then maintain every batch back to back.
type ingestRep struct {
	eng     *engine
	wall    time.Duration // the timed region, probes excluded
	batchMs []float64
	infos   []batchInfo
	cells   int
}

// ingestOnce runs one repetition on its own dataset. until, when not zero,
// lets a traced repetition stop between batches once that time has come.
func (r *run) ingestOnce(rep int, traced bool, until time.Time) (*ingestRep, error) {
	runtime.GC()
	t0 := time.Now()
	ds, err := genDataset(r.gen, r.subSeed(rep))
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	eng, err := newEngine(ds, localFabric, tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	r.setupS = append(r.setupS, setup)
	out := &ingestRep{eng: eng}
	if r.res.Sizes.BaseCells == 0 {
		r.res.Sizes.BaseCells, r.res.Sizes.BaseChunks = ds.baseCells(), ds.baseChunks()
	}

	before := readProc()
	for i := 0; i < ds.numBatches(); i++ {
		if !until.IsZero() && time.Now().After(until) {
			break
		}
		s := time.Now()
		var info batchInfo
		if traced {
			r.batches++
			info, err = eng.stepBatch(i, int32(r.batches))
		} else {
			info, err = eng.applyBatch(i)
		}
		d := time.Since(s)
		if !r.op(err) {
			eng.close()
			return nil, fmt.Errorf("%s: batch %d: %w", r.cfg.Name, i, err)
		}
		out.wall += d
		out.batchMs = append(out.batchMs, ms(d))
		out.infos = append(out.infos, info)
		out.cells += info.Cells
		if traced {
			r.infos = append(r.infos, info)
			p, err := eng.probeBatch(i)
			if err != nil {
				eng.close()
				return nil, err
			}
			r.probes = append(r.probes, p)
		}
	}
	if !traced {
		r.proc = r.proc.add(readProc().sub(before))
		r.procBatches += len(out.batchMs)
	}
	r.repDone(repStat{
		Seed: r.subSeed(rep), Traced: traced, Batches: len(out.batchMs), SetupS: setup, WallS: out.wall.Seconds(),
		CellsPerS: ratio(float64(out.cells), out.wall.Seconds()), BatchMsP50: median(out.batchMs),
	}, out.cells)
	return out, nil
}

func (r *run) runIngest() error {
	if r.opt.trace {
		return r.runIngestTraced()
	}
	var used time.Duration
	for rep := 0; used < r.limit(); rep++ {
		out, err := r.ingestOnce(rep, false, time.Time{})
		if err != nil {
			return err
		}
		used += out.wall
		r.batchMs = append(r.batchMs, out.batchMs...)
		r.cells += out.cells
		r.ingestWallS += out.wall.Seconds()
		final := used >= r.limit()
		if final {
			r.peakRSS = peakRSSMiB()
		}
		err = r.ingestEpilogue(out.eng, final)
		out.eng.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// ingestEpilogue runs, outside the timed region, what gives an ingest
// repetition its query and recovery numbers, and on the final repetition
// the maintenance oracle.
func (r *run) ingestEpilogue(eng *engine, final bool) error {
	st, err := eng.state()
	if err != nil {
		return err
	}
	if final {
		if err := r.checkView(st); err != nil {
			return err
		}
	}
	if err := r.readBack(eng, st); err != nil {
		return err
	}
	return r.checkpointProbe(eng, st)
}

// runIngestTraced: a warm-up repetition, an untraced reference repetition,
// the same seed again through the stepped driver behind the span fabric,
// then further traced repetitions while the time lasts.
func (r *run) runIngestTraced() error {
	// The process's first repetition pays for heap growth and cold caches;
	// it is run and thrown away so the reference is as warm as the traced
	// repetition compared with it.
	warm, err := r.ingestOnce(0, false, time.Time{})
	if err != nil {
		return err
	}
	warm.eng.close()
	r.proc, r.procBatches = procSample{}, 0

	ref, err := r.ingestOnce(0, false, time.Time{})
	if err != nil {
		return err
	}
	refState, err := ref.eng.state()
	if err != nil {
		return err
	}
	refFabric, err := ref.eng.fabricInfo()
	ref.eng.close()
	if err != nil {
		return err
	}
	if err := r.checkView(refState); err != nil {
		return err
	}
	r.procLayer()

	deadline := time.Now().Add(r.limit())
	var last *ingestRep
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		until := deadline
		if rep == 0 {
			until = time.Time{} // the repetition compared with the reference runs whole
		}
		out, err := r.ingestOnce(rep, true, until)
		if err != nil {
			return err
		}
		if last != nil {
			last.eng.close()
		}
		last = out
		r.batchMs = append(r.batchMs, out.batchMs...)
		if rep > 0 {
			continue
		}
		st, err := out.eng.state()
		if err != nil {
			return err
		}
		fi, err := out.eng.fabricInfo()
		if err != nil {
			return err
		}
		r.check("traced-state-equals-untraced", st.equal(refState), "stepped driver behind the span fabric against Maintainer.ApplyBatch, seed %d", r.subSeed(0))
		r.check("stepped-driver-counts", slices.Equal(out.infos, ref.infos), "cells, units, triples, transfers and ledger cost of %d batches", len(ref.infos))
		r.check("span-fabric-request-counts", sameRequests(fi.Requests, refFabric.Requests), "traced %v, untraced %v", fi.Requests, refFabric.Requests)
		r.set("storage.resident_mb_end", float64(fi.Bytes)/(1<<20))
		r.set("storage.chunks_end", float64(fi.Chunks))
		r.set("trace_overhead_pct", 100*(median(out.batchMs)-median(ref.batchMs))/median(ref.batchMs))
	}
	defer last.eng.close()

	if r.cfg.Name == "ingest-sparse" {
		// The default-scale answer time: cold Engine.Answer calls under the
		// cost model's own choice, on a repetition's end state. Three of
		// them, the two repeated balls and one cold shape: each takes a
		// second or more.
		var msv []float64
		for _, q := range []int{1, 2, 4} {
			sh, err := last.eng.mixShape(q)
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = last.eng.coldAnswer(sh)
			if !r.op(err) {
				return err
			}
			msv = append(msv, ms(time.Since(t0)))
		}
		r.set("query.bigscale_answer_ms_p50", median(msv))
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := last.eng.gatherView(); err != nil {
			return err
		}
		r.layerSample("cluster.gather_view_ms_p50", ms(time.Since(t0)))
	}
	return nil
}

// sameRequests compares Fabric.Stats request counts by type, leaving out
// the timing-dependent wire exchanges.
func sameRequests(a, b map[string]int64) bool {
	for _, m := range []map[string]int64{a, b} {
		for k := range m {
			if !wireExchange(k) && a[k] != b[k] {
				return false
			}
		}
	}
	return true
}
